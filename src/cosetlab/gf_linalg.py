"""Exact linear algebra over prime fields GF(q).

Everything downstream (syndrome codes, cosets, constrained samplers)
reduces to residue arithmetic mod a prime q.  Vectors and matrices are
immutable; a matrix row-reduces itself once, on the first use of its
rank or its solver, and keeps that reduction, so its rank and the
solutions of many right-hand sides all come from one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError

# Cosets larger than this are never materialized; callers fall back to MCMC.
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


@dataclass(frozen=True)
class GfVector:
    """Immutable vector of residues mod q.

    Zero-length vectors are allowed: a matrix with no rows produces an
    empty syndrome (a vacuous constraint).
    """

    field: FieldSpec
    entries: tuple

    def __post_init__(self):
        ent = tuple(int(e) for e in self.entries)
        q = self.field.q
        if any(not 0 <= e < q for e in ent):
            raise ValueError("vector entries must be residues in [0, q)")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def from_array(cls, field: FieldSpec, arr) -> "GfVector":
        return cls(field, tuple(int(v) % field.q for v in arr))

    @classmethod
    def zeros(cls, field: FieldSpec, n: int) -> "GfVector":
        return cls(field, (0,) * n)

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


@dataclass(frozen=True, eq=False)
class LinearMap:
    """An l x n matrix over GF(q), row-reduced once on first use.

    ``cols`` only needs to be passed for matrices with zero rows, where
    it cannot be inferred from the entries.
    """

    field: FieldSpec
    entries: tuple
    cols: Optional[int] = None

    def __post_init__(self):
        q = self.field.q
        rows = tuple(tuple(int(e) % q for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("ragged matrix")
            if self.cols is not None and self.cols != n:
                raise ValueError("cols inconsistent with entries")
            object.__setattr__(self, "cols", n)
        else:
            if self.cols is None or self.cols < 1:
                raise ValueError("a matrix with no rows needs an explicit column count")
        arr = np.array(rows, dtype=np.int64).reshape(len(rows), self.cols)
        arr.flags.writeable = False
        object.__setattr__(self, "_arr", arr)
        object.__setattr__(self, "_reduced", None)
        object.__setattr__(self, "_solver", None)

    def _reduction(self):
        """(rref, transform, pivot_cols) of :func:`_row_reduce`, computed on first use."""
        if self._reduced is None:
            object.__setattr__(self, "_reduced", _row_reduce(self._arr, self.field))
        return self._reduced

    @classmethod
    def from_array(cls, field: FieldSpec, arr) -> "LinearMap":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls(field, tuple(tuple(int(v) for v in row) for row in arr), cols=arr.shape[1])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "LinearMap":
        return cls.from_array(field, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "LinearMap":
        if rows == 0:
            return cls(field, (), cols=cols)
        return cls.from_array(field, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def rank(self) -> int:
        return len(self._reduction()[2])

    def as_array(self) -> np.ndarray:
        return self._arr

    def solver(self) -> "AffineSolver":
        if self._solver is None:
            object.__setattr__(self, "_solver", AffineSolver(self))
        return self._solver

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.field == other.field
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of A x = c: a particular solution plus a null-space basis.

    ``particular is None`` marks an inconsistent (empty) system.  When
    non-empty, the coset is particular + span(null_basis) and has exactly
    q^(n - rank) members.
    """

    field: FieldSpec
    n: int
    particular: Optional[GfVector]
    null_basis: tuple

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def size(self) -> int:
        if self.is_empty:
            return 0
        return self.field.q ** len(self.null_basis)


class AffineSolver:
    """Solves A x = c for many right-hand sides from the map's one elimination."""

    def __init__(self, a: LinearMap):
        self.map = a
        self.field = a.field
        self.n = a.cols
        rref, self._transform, pivots = a._reduction()
        self._pivots = pivots
        q = a.field.q
        free = [c for c in range(a.cols) if c not in pivots]
        basis = []
        for f in free:
            v = np.zeros(a.cols, dtype=np.int64)
            v[f] = 1
            for j, p in enumerate(pivots):
                v[p] = (-rref[j, f]) % q
            basis.append(GfVector.from_array(a.field, v))
        self.null_basis = tuple(basis)

    def solve(self, c: GfVector) -> AffineSolution:
        if len(c) != self.map.rows or c.field != self.field:
            raise ValueError("right-hand side does not match the matrix")
        t = (self._transform @ c.as_array()) % self.field.q
        if np.any(t[len(self._pivots):]):
            return AffineSolution(self.field, self.n, None, self.null_basis)
        x = np.zeros(self.n, dtype=np.int64)
        for j, p in enumerate(self._pivots):
            x[p] = t[j]
        return AffineSolution(self.field, self.n, GfVector.from_array(self.field, x),
                              self.null_basis)


def matvec(a: LinearMap, x: GfVector) -> GfVector:
    """A x mod q.  Dimensions and fields must match."""
    if a.field != x.field:
        raise ValueError("field mismatch")
    if a.cols != len(x):
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} map, length-{len(x)} vector")
    if a.rows == 0:
        return GfVector(a.field, ())
    out = (a.as_array() @ x.as_array()) % a.field.q
    return GfVector.from_array(a.field, out)


def solve_affine(a: LinearMap, c: GfVector) -> AffineSolution:
    """Solution set of A x = c (empty marker when inconsistent)."""
    return a.solver().solve(c)


def coset_array(sol: AffineSolution, cap: int = COSET_ENUMERATION_CAP) -> np.ndarray:
    """All coset members as a (size, n) array; row i adds the null basis, weighted by the
    base-q digits of i (first basis vector most significant), to the particular solution."""
    if sol.is_empty:
        return np.zeros((0, sol.n), dtype=np.int64)
    if sol.size > cap:
        raise CapExceededError(f"coset of size {sol.size} is too large to enumerate (cap {cap})")
    q = sol.field.q
    basis = np.array([b.entries for b in sol.null_basis], dtype=np.int64).reshape(-1, sol.n)
    return (sol.particular.as_array()[None, :] + span_array(basis, q)) % q


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

    ``maps`` is a (count, l, n) stack.  The table is filled a block of maps
    at a time, so no temporary exceeds about CHUNK_ENTRIES entries, and is
    stored in the narrowest unsigned type that holds q^l - 1.
    """
    count, l, _ = maps.shape
    codes = np.empty((count, len(words)), dtype=np.min_scalar_type(q ** l - 1))
    step = max(1, CHUNK_ENTRIES // max(len(words), 1))
    words_t = words.T
    for b0 in range(0, count, step):
        block = np.zeros((min(step, count - b0), len(words)), dtype=np.int64)
        for r in reversed(range(l)):
            block *= q
            block += (maps[b0:b0 + step, r, :] @ words_t) % q
        codes[b0:b0 + step] = block
    return codes


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
    rows = tuple(row for m in maps for row in m.entries)
    return LinearMap(field, rows, cols=cols)


def concat_vectors(vectors: Sequence[GfVector], field: FieldSpec) -> GfVector:
    entries = tuple(e for v in vectors for e in v.entries)
    return GfVector(field, entries)
