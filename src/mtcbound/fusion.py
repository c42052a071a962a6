"""Fusion rings: one sorted integer table of fusion coefficients, with
dual and unit data.

This is the Grothendieck-ring level of the story.  A ring here may have a
decomposable unit (several unit summands); the block structure of such
rings lives in :mod:`mtcbound.multifusion`.

A ring stores its coefficients as one table, `ring.table`: the nonzero
rows [i, j, k, N_ij^k] in (i, j, k) order, exactly the JSON "fusion"
rows, with integers held by the rule below.  Each key is also encoded
as the int64 code (i r + j) r + k, so a coefficient is a binary search
in the sorted codes, the rows of label i (or of the pair i, j) are one
contiguous slice, and construction checks range, sign and duplicates
with numpy.
Every construction in the package (group rings, products, sums,
corners, Verlinde, JSON) goes through `FusionRing.from_table`;
`FusionRing(..., fusion=mapping)` is an input adapter for hand-built
rings that turns the mapping into rows first.  `ring.fusion` is a
read-only {(i, j, k): N} view of the table, built on first access.

Validation is exact.  Associativity, at every rank, joins the table with
itself: row (i, j, m) with the rows of label m, row (i, m, l) with the
rows of third index m, a block of labels i at a time.  One sort brings
the signed products of each key (i, j, k, l) together, and each must sum
to zero.  Partial sums are at most r max N^2 in absolute value, the
bound that picks their dtype by the rule below, so none can wrap.

Exact integer arrays.  The numpy layers (this module, `modular`,
`pointed`, `multifusion`, `obstruction`) keep their integers exact by
one rule, written here alone.  A value array is int64 while a bound on
its entries, or on every partial sum made from them, is below 2^63
(`_INT64_LIMIT`), and Python integers in an object array from there on
(`_widen`).  An integer product whose partial sums stay below 2^53
(`_FLOAT_EXACT`) runs in float64 on BLAS, where it is exact
(`_exact_dtype`), and a result is kept as int64 when every entry fits
(`_settle`).  Exponent vectors mod M (the q-exponents and the twist
exponents) are also index arrays, read by `np.bincount` and `np.take`,
so they follow their own bound instead: int64 while M is below 2^62
(`_EXPONENT_LIMIT`), which keeps e[a + c] - e[a] - e[c] in (-2M, M)
from wrapping (`_exponent_array`).  Setting `_INT64_LIMIT` and
`_FLOAT_EXACT` to 0 is one switch that runs every value array of those
layers on Python integers, leaving the exponents as they are; the tests
run the object branches of every layer together through it.

Blocked passes.  Six passes split their work into blocks of about
`_BLOCK_BYTES` (2 MB) of their largest arrays: associativity and the
stacked eigensolves of `fp_dimensions` here, the Verlinde table, the
ring route and Light's test of the pointed certificate in `modular`,
and the Lagrangian enumeration in `pointed`.  A pass divides the
budget by its item size, 8 bytes for int64, float64 and object entries
and 2 for the uint16 labels of Light's test and the int16 positions of
the enumeration.  Passes whose labels cost unequal amounts split
them with `_label_blocks`; the others take a fixed step (`_block_step`).

The elements of a finite abelian group, a product of cyclic groups, are
indexed, labelled and added here once for the package: `group_strides`,
`group_coordinates`, `group_law` and `element_label` are what
`group_ring`, the pointed layer and the verdict report all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product
from types import MappingProxyType

import numpy as np

from .cyclotomic import _FLOAT_EXACT
from .errors import (
    DualMismatch,
    InputError,
    MultiplicityLimitError,
    NumericError,
    PerfectnessFailure,
)
from .report import ValidationReport

# int64 holds |x| < 2^63
_INT64_LIMIT = 2**63
# exponents mod M are int64 index arrays while M is below this
_EXPONENT_LIMIT = 2**62
# bytes of one block of a blocked pass: 2^18 int64 or object entries,
# or 2^20 int16 ones
_BLOCK_BYTES = 2**21
# FP dimensions run in float64: multiplicities up to the cap are exact
# there and give finite dimensions and global dimensions
FP_MULTIPLICITY_CAP = 2**53
# an eigenvalue e counts as real when |Im e| <= _REAL_TOLERANCE (1 + |e|)
_REAL_TOLERANCE = 1e-10


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _widen(a: np.ndarray, bound: int) -> np.ndarray:
    """a, as Python integers in an object array once `bound` (on its
    entries, or on every partial sum made from them) reaches 2^63."""
    return a.astype(object, copy=False) if bound >= _INT64_LIMIT else a


def _exact_dtype(bound: int):
    """Work dtype for an integer product whose partial sums all have
    absolute value at most `bound`: float64 (BLAS) when that is exact."""
    return np.float64 if bound < _FLOAT_EXACT else object


def _settle(a: np.ndarray) -> np.ndarray:
    """An exact integer-valued array as int64 when every entry fits,
    else as Python integers in an object array."""
    if a.dtype == np.float64:
        return a.astype(np.int64)  # only made under a bound below 2^53
    if a.dtype == object and _max_abs(a) < _INT64_LIMIT:
        return a.astype(np.int64)
    return a


def _exponent_array(exponents: list, order: int) -> np.ndarray:
    """Exponents mod `order` as an index array: int64 below
    `_EXPONENT_LIMIT`, else Python integers in an object array."""
    return np.array(exponents, dtype=np.int64 if order < _EXPONENT_LIMIT else object)


class FusionRing:
    """Labels, unit summands, dual involution and the sorted table of
    nonzero fusion coefficients; immutable."""

    __slots__ = ("labels", "unit", "dual", "table", "_codes", "_fusion")

    def __init__(self, labels, unit, dual, fusion):
        labels, unit, dual = _checked_header(labels, unit, dual)
        self._set(labels, unit, dual, _table_of(_mapping_rows(fusion, len(labels))))

    @classmethod
    def from_table(cls, labels, unit, dual, table) -> "FusionRing":
        """A ring from rows [i, j, k, N] in any order; zero rows are
        dropped.  A contiguous int64 array that owns its data and is
        already in (i, j, k) order is taken over, not copied: it becomes
        the ring's table and is made read-only.  A view of another
        array is copied, so no writeable buffer reaches the table."""
        labels, unit, dual = _checked_header(labels, unit, dual)
        ring = cls.__new__(cls)
        ring._set(labels, unit, dual, table)
        return ring

    def _set(self, labels, unit, dual, table) -> None:
        table, codes = _checked_table(table, len(labels))
        if table.base is not None:
            table = table.copy()
        table.flags.writeable = False
        codes.flags.writeable = False
        for name, value in (
            ("labels", labels),
            ("unit", unit),
            ("dual", dual),
            ("table", table),
            ("_codes", codes),
            ("_fusion", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("FusionRing is immutable")

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return self.labels == other.labels and self.same_fusion(other)

    __hash__ = None

    def __repr__(self):
        return (
            f"FusionRing(labels={self.labels!r}, unit={self.unit!r}, "
            f"dual={self.dual!r}, rows={len(self.table)})"
        )

    def same_fusion(self, other: "FusionRing") -> bool:
        """Equal unit, dual and fusion coefficients (labels aside)."""
        return self is other or (
            self.unit == other.unit
            and self.dual == other.dual
            and self.table.shape == other.table.shape
            and bool((self.table == other.table).all())
        )

    # -- views ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def fusion(self):
        """Read-only {(i, j, k): N} view of the nonzero coefficients."""
        if self._fusion is None:
            keys = map(tuple, self.table[:, :3].tolist())
            view = MappingProxyType(dict(zip(keys, self.table[:, 3].tolist())))
            object.__setattr__(self, "_fusion", view)
        return self._fusion

    def indices(self) -> np.ndarray:
        """int64 (rows, 3) array of the (i, j, k) of the table rows."""
        keys = self.table[:, :3]
        return keys if keys.dtype == np.int64 else keys.astype(np.int64)

    def n(self, i: int, j: int, k: int) -> int:
        r = self.rank
        if not (0 <= i < r and 0 <= j < r and 0 <= k < r):
            return 0
        code = (i * r + j) * r + k
        p = int(np.searchsorted(self._codes, code))
        if p < len(self._codes) and self._codes[p] == code:
            return int(self.table[p, 3])
        return 0

    def coefficients(self, codes: np.ndarray) -> np.ndarray:
        """N at each int64 code (i r + j) r + k of valid keys; 0 where absent."""
        return _lookup(self._codes, self.table[:, 3], codes)

    def _rows(self, i: int, j: int) -> np.ndarray:
        """The table rows of the pair (i, j)."""
        r = self.rank
        lo = (i * r + j) * r
        start, stop = np.searchsorted(self._codes, (lo, lo + r))
        return self.table[start:stop]

    def product_vector(self, i: int, j: int) -> np.ndarray:
        """(N_ij^k)_k, the coefficients of x_i x_j."""
        out = np.zeros(self.rank, dtype=self.table.dtype)
        rows = self._rows(i, j)
        out[rows[:, 2].astype(np.int64)] = rows[:, 3]
        return out

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": list(self.unit),
            "dual": list(self.dual),
            "fusion": self.table.tolist(),
        }

    @staticmethod
    def from_json_dict(obj) -> "FusionRing":
        if not isinstance(obj, dict):
            raise InputError("fusion ring section must be an object")
        for key in ("labels", "unit", "dual", "fusion"):
            if key not in obj:
                raise InputError(f"fusion ring section missing key {key!r}")
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError("labels must be an array of strings")
        for key in ("unit", "dual"):
            if not _is_int_list(obj[key]):
                raise InputError(f"{key} must be an array of integers")
        triples = obj["fusion"]
        if not isinstance(triples, list):
            raise InputError("fusion must be a list of [i, j, k, N] rows")
        return FusionRing.from_table(
            labels=tuple(labels),
            unit=tuple(obj["unit"]),
            dual=tuple(obj["dual"]),
            table=_json_table(triples),
        )


def _is_int_list(obj) -> bool:
    """obj is a JSON array of integers (booleans excluded)."""
    return isinstance(obj, list) and all(type(x) is int for x in obj)


def _checked_header(labels, unit, dual) -> tuple:
    r = len(labels)
    if r == 0:
        raise InputError("a fusion ring needs at least one label")
    if len(set(labels)) != r:
        raise InputError("duplicate labels")
    labels = tuple(str(x) for x in labels)
    unit = tuple(unit)
    if not unit:
        raise InputError("unit_summands must be nonempty")
    if len(set(unit)) != len(unit):
        raise InputError("repeated unit summand")
    if any(not isinstance(u, int) or not 0 <= u < r for u in unit):
        raise InputError("unit summand index out of range")
    dual = tuple(dual)
    if len(dual) != r or sorted(dual) != list(range(r)):
        raise InputError("dual must be a permutation of all label indices")
    return labels, tuple(sorted(unit)), dual


def _mapping_rows(fusion, r: int) -> list:
    """Rows of a {(i, j, k): N} mapping, zeros dropped; the first bad
    key in mapping order is named."""
    rows = []
    for key, value in fusion.items():
        i, j, k = key
        if not (
            isinstance(i, int)
            and isinstance(j, int)
            and isinstance(k, int)
            and 0 <= i < r
            and 0 <= j < r
            and 0 <= k < r
        ):
            raise InputError(f"fusion index out of range: {key}")
        if not isinstance(value, int) or value < 0:
            raise InputError(f"fusion multiplicity must be a non-negative integer: {key}")
        if value:
            rows.append((int(i), int(j), int(k), int(value)))
    return rows


def _table_of(rows) -> np.ndarray:
    """(m, 4) array of integer rows: int64 when every entry fits, read in
    one pass, else Python integers in an object array."""
    try:
        entries = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=4 * len(rows))
    except OverflowError:
        return np.array(rows, dtype=object)
    return entries.reshape(-1, 4)


def _json_table(triples: list) -> np.ndarray:
    """The table of JSON rows.  The first bad row or repeated (i, j, k)
    is named, in row order, before any check of the other fields.
    Well-formed rows pass a few C-level checks; the row-by-row scan runs
    only after one of them has found a fault, to name it."""
    if (
        set(map(type, triples)) <= {list}
        and set(map(len, triples)) <= {4}
        and set(map(type, chain.from_iterable(triples))) <= {int}
    ):
        table = _table_of(triples)
        if not _has_repeated_key(table):
            return table
    _scan_rows(triples)
    return _table_of(triples)


def _has_repeated_key(table: np.ndarray) -> bool:
    """Some two rows share (i, j, k).  Rows in strictly increasing
    (i, j, k) order, as `save` writes them, pass one comparison of
    neighbours; only other tables are sorted."""
    if table.dtype == object:
        return len(set(map(tuple, table[:, :3].tolist()))) < len(table)
    before, after = table[:-1], table[1:]
    increasing = after[:, 2] > before[:, 2]
    for column in (1, 0):
        increasing = (after[:, column] > before[:, column]) | (
            (after[:, column] == before[:, column]) & increasing
        )
    if increasing.all():
        return False
    keys = table[np.lexsort(table[:, 2::-1].T), :3]
    return bool((keys[1:] == keys[:-1]).all(axis=1).any())


def _scan_rows(triples: list) -> None:
    """Raise on the first bad row or repeated (i, j, k), row by row."""
    seen = set()
    for row in triples:
        if not _is_int_list(row) or len(row) != 4:
            raise InputError(f"bad fusion row {row!r}")
        key = tuple(row[:3])
        if key in seen:
            raise InputError(f"duplicate fusion triple {key}")
        seen.add(key)


def _codes(keys: np.ndarray, r: int) -> np.ndarray:
    """int64 codes (i r + j) r + k of keys in range."""
    return (keys[:, 0] * r + keys[:, 1]) * r + keys[:, 2]


def _checked_table(table, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, codes): the rows sorted by (i, j, k), zero rows dropped,
    with their codes (i r + j) r + k.  Raises InputError naming the first
    row (in the given order) with a key out of range, a negative N or a
    key seen before."""
    if not isinstance(table, np.ndarray):
        # numpy would read Python integers beyond int64 as floats
        table = np.array(table, dtype=object)
    if table.size == 0:
        table = np.zeros((0, 4), dtype=np.int64)
    if table.ndim != 2 or table.shape[1] != 4:
        raise InputError("fusion table must have rows [i, j, k, N]")
    if table.dtype.kind == "u" and table.dtype.itemsize == 8:
        table = table.astype(object)
    if table.dtype == object:
        entries = table.ravel().tolist()
        if not set(map(type, entries)) <= {int}:
            raise InputError("fusion table entries must be integers")
        table = _settle(table)
    elif table.dtype.kind in "iu":
        table = table.astype(np.int64, copy=False)
    else:
        raise InputError("fusion table entries must be integers")

    keys = table[:, :3]
    if len(table) and (keys.min() < 0 or keys.max() >= r or table[:, 3].min() < 0):
        out_of_range = ((keys < 0) | (keys >= r)).any(axis=1)
        p = int(np.argmax(out_of_range | (table[:, 3] < 0)))
        key = tuple(int(x) for x in keys[p])
        if out_of_range[p]:
            raise InputError(f"fusion index out of range: {key}")
        raise InputError(f"fusion multiplicity must be a non-negative integer: {key}")

    keys = keys.astype(np.int64, copy=False)
    codes = _codes(keys, r)
    if not (codes[1:] > codes[:-1]).all():
        # stable: the earliest row of a run of equal codes comes first, so
        # the rest of the run are the repeats
        order = np.argsort(codes, kind="stable")
        codes, table = codes[order], table[order]
        repeated = codes[1:] == codes[:-1]
        if repeated.any():
            p = int(order[1:][repeated].min())
            raise InputError(f"duplicate fusion triple {tuple(int(x) for x in keys[p])}")
    nonzero = table[:, 3] != 0
    if not nonzero.all():
        table, codes = table[nonzero], codes[nonzero]
    return np.ascontiguousarray(table), np.ascontiguousarray(codes)


def _lookup(codes: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """values at the query codes in sorted codes; 0 where absent."""
    if not len(codes):
        return np.zeros(len(query), dtype=values.dtype)
    p = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
    return np.where(codes[p] == query, values[p], 0)


def first_difference(ring: FusionRing, table: np.ndarray) -> tuple | None:
    """The first (i, j, k) at which a sorted table of nonzero rows with
    keys in range differs from ring's coefficients, or None."""
    r = ring.rank
    codes = _codes(table[:, :3].astype(np.int64), r)
    # every key of either table, in order (a key in both appears twice)
    keys = np.sort(np.concatenate((codes, ring._codes)))
    differs = np.flatnonzero(_lookup(codes, table[:, 3], keys) != ring.coefficients(keys))
    if not differs.size:
        return None
    code = int(keys[differs[0]])
    return (code // (r * r), code // r % r, code % r)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(ring: FusionRing) -> ValidationReport:
    """Check the ring axioms; every named check gets a pass/fail entry.

    Structural problems (bad indices, empty unit) already raise InputError
    at construction; everything here is a semantic axiom.
    """
    report = ValidationReport("fusion ring")
    r = ring.rank

    ok, where = True, None
    for i in range(r):
        if ring.dual[ring.dual[i]] != i:
            ok, where = False, (i,)
            break
    report.add("dual_involution", ok, where)

    ok, where = True, None
    for u in ring.unit:
        if ring.dual[u] != u:
            ok, where = False, (u,)
            break
    report.add("unit_summands_self_dual", ok, where)

    report.add("unit_law", *_unit_law(ring))
    report.add("associativity", *_associativity(ring))

    # scanning the nonzero triples suffices: any violation in a reciprocity
    # orbit sits next to a nonzero entry, whose own scan detects it
    i, j, k = ring.indices().T
    dual = np.array(ring.dual, dtype=np.int64)
    value = ring.table[:, 3]
    bad = (ring.coefficients((dual[i] * r + k) * r + j) != value) | (
        ring.coefficients((k * r + dual[j]) * r + i) != value
    )
    p = np.flatnonzero(bad)
    report.add(
        "frobenius_reciprocity",
        not p.size,
        (int(i[p[0]]), int(j[p[0]]), int(k[p[0]])) if p.size else None,
    )
    return report


def _unit_law(ring: FusionRing) -> tuple[bool, tuple | None]:
    """sum_u N_uj^k = sum_u N_ju^k = delta_jk for every (j, k); the
    first failing (j, k) in row-major order.

    Coefficients are non-negative, so a sum is delta_jk exactly when no
    unit row reaches an off-diagonal (j, k) and exactly one reaches each
    (j, j), with coefficient 1.
    """
    r = ring.rank
    i, j, k = ring.indices().T
    one = ring.table[:, 3] == 1
    is_unit = np.zeros(r, dtype=bool)
    is_unit[list(ring.unit)] = True
    failures = []
    # x_u x_j (left) and x_j x_u (right), at position (j, k)
    for unit_side, x in ((i, j), (j, i)):
        reached = is_unit[unit_side]
        off = reached & (x != k)
        failures.append(x[off] * r + k[off])
        diag = reached & (x == k)
        count = np.bincount(x[diag], minlength=r)
        wrong = np.bincount(x[diag & ~one], minlength=r)
        bad = np.flatnonzero((count != 1) | (wrong != 0))
        failures.append(bad * (r + 1))
    positions = np.concatenate(failures)
    if not positions.size:
        return True, None
    first = int(positions.min())
    return False, (first // r, first % r)


def _associativity(ring: FusionRing) -> tuple[bool, tuple | None]:
    """(x_i x_j) x_k = x_i (x_j x_k), coefficient by coefficient; the
    first failing (i, j, k, l) in lexicographic order.

    Left minus right at (i, j, k, l) is sum_m N_ij^m N_mk^l - N_jk^m
    N_im^l, a sum over the row pairs (i, j, m), (m, k, l) and (i, m, l),
    (j, k, m) of the table.  A block of labels i sums its products key
    by key after one sort; blocks run in increasing i, so the first
    nonzero sum is the first failure.
    """
    r = ring.rank
    first, middle, last = ring.indices().T
    values = ring.table[:, 3]
    values = _widen(values, r * _max_abs(values) ** 2)
    labels = np.arange(r + 1)
    # the rows with first index m are one slice of the table, the rows
    # with third index m one slice of the table sorted by that index
    by_first = first.searchsorted(labels)
    by_last = last.argsort(kind="stable")
    by_last_start = last[by_last].searchsorted(labels)
    n_left = (by_first[1:] - by_first[:-1])[last]
    n_right = (by_last_start[1:] - by_last_start[:-1])[middle]
    # products made by the rows of the labels below i
    made = np.concatenate(([0], np.cumsum(n_left + n_right)))[by_first]
    # so that every key ((i - start) r + j) r + k) r + l is below 2^63
    span = max(1, (_INT64_LIMIT - 1) // r**3)
    pairs, tails = ring._codes // r, ring._codes % (r * r)  # i r + j, j r + k
    for start, stop in _label_blocks(made, 8, span):
        lo, hi = by_first[start], by_first[stop]
        p, q = _join(by_first[last[lo:hi]], n_left[lo:hi], lo)  # (i, j, m), (m, k, l)
        left = (pairs[p] - start * r) * (r * r) + tails[q], values[p] * values[q]
        p, q = _join(by_last_start[middle[lo:hi]], n_right[lo:hi], lo)
        q = by_last[q]  # (i, m, l), (j, k, m)
        right = (first[p] - start) * r**3 + pairs[q] * r + last[p], -(values[p] * values[q])
        keys, terms = np.concatenate((left[0], right[0])), np.concatenate((left[1], right[1]))
        order = keys.argsort()
        keys = keys[order]
        # the first product of each key (keys are >= 0)
        heads = np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])).nonzero()[0]
        bad = np.add.reduceat(terms[order], heads).nonzero()[0]
        if len(bad):
            code = int(keys[heads[bad[0]]])
            return False, (start + code // r**3, code // (r * r) % r, code // r % r, code % r)
    return True, None


def _label_blocks(made: np.ndarray, itemsize: int, span: int | None = None):
    """Ranges [start, stop) of labels, in order, that split the cost
    made[r] - made[0] greedily into blocks of about _BLOCK_BYTES: made[i]
    is the number of items of itemsize bytes that the labels below i
    make, and a block holds at least one label and at most span."""
    r = len(made) - 1
    span = span or r
    start = 0
    while start < r:
        stop = int(np.searchsorted(made, made[start] + _BLOCK_BYTES // itemsize, side="right")) - 1
        stop = min(max(stop, start + 1), start + span)
        yield start, stop
        start = stop


def _block_step(items: int, itemsize: int) -> int:
    """Units per block of a pass whose every unit makes items of itemsize
    bytes: about _BLOCK_BYTES of them, and at least one unit."""
    return max(1, _BLOCK_BYTES // (itemsize * items))


def _join(starts: np.ndarray, counts: np.ndarray, offset: int) -> tuple:
    """Index pairs (offset + a, starts[a] + t) for t < counts[a]: row
    offset + a of the table against its counts[a] partner rows."""
    source = np.arange(offset, offset + len(counts)).repeat(counts)
    target = np.arange(counts.sum()) + (starts - counts.cumsum() + counts).repeat(counts)
    return source, target


# ---------------------------------------------------------------------------
# decategorified rigidity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """B_{ij} = multiplicity of unit summands inside x_i x_j."""

    entries: tuple
    permutation: tuple


def pairing_entries(ring: FusionRing) -> list[list[int]]:
    r = ring.rank
    keys = ring.indices()
    values = ring.table[:, 3]
    out = np.zeros((r, r), dtype=object)
    for u in ring.unit:
        # each (i, j) has at most one row with k = u
        rows = keys[:, 2] == u
        out[keys[rows, 0], keys[rows, 1]] += values[rows].astype(object)
    return out.tolist()


def frobenius_pairing(ring: FusionRing) -> PairingMatrix:
    """The unit-coefficient pairing; must be a permutation matrix.

    Raises PerfectnessFailure when some row is empty or overweight, and
    DualMismatch when the induced permutation differs from the declared
    dual involution.
    """
    b = pairing_entries(ring)
    r = ring.rank
    perm = []
    for i, row in enumerate(b):
        support = [j for j, v in enumerate(row) if v]
        if len(support) != 1 or row[support[0]] != 1:
            raise PerfectnessFailure(
                f"pairing row {i} ({ring.labels[i]}) has weight "
                f"{sum(row)} over {len(support)} columns"
            )
        perm.append(support[0])
    if sorted(perm) != list(range(r)):
        raise PerfectnessFailure("pairing columns are not a permutation")
    if tuple(perm) != ring.dual:
        bad = next(i for i in range(r) if perm[i] != ring.dual[i])
        raise DualMismatch(
            f"pairing sends {ring.labels[bad]} to {ring.labels[perm[bad]]}, "
            f"declared dual is {ring.labels[ring.dual[bad]]}"
        )
    return PairingMatrix(tuple(tuple(row) for row in b), tuple(perm))


def pairing_symmetry_check(ring: FusionRing) -> list[tuple[int, int]]:
    """Violations of B_{ij} = B_{ji}; empty list means the check passed."""
    b = pairing_entries(ring)
    r = ring.rank
    return [(i, j) for i in range(r) for j in range(i + 1, r) if b[i][j] != b[j][i]]


# ---------------------------------------------------------------------------
# dimensions and constructions
# ---------------------------------------------------------------------------


def fp_dimensions(ring: FusionRing) -> list[float]:
    """Largest real eigenvalue of left multiplication, per label.

    The matrices (N_ij^k)_jk of a block of labels, about _BLOCK_BYTES of
    float64 (`_block_step`), are scattered from the table rows into one
    stack, and `np.linalg.eigvals` solves the stack in one call.  Raises
    MultiplicityLimitError on a multiplicity above FP_MULTIPLICITY_CAP,
    naming the first such row, and NumericError at the first label
    whose eigenvalues are not finite or none real."""
    over = np.flatnonzero(ring.table[:, 3] > FP_MULTIPLICITY_CAP)
    if len(over):
        i, j, k, _ = ring.table[over[0]].tolist()
        raise MultiplicityLimitError(
            f"multiplicity N[{i},{j},{k}] exceeds cap 2^53 for FP dimensions"
        )
    r = ring.rank
    first, j, k = ring.indices().T
    values = ring.table[:, 3].astype(np.float64)
    by_first = first.searchsorted(np.arange(r + 1))
    step = _block_step(r * r, 8)
    dims = []
    for start in range(0, r, step):
        stop = min(start + step, r)
        lo, hi = by_first[start], by_first[stop]
        stack = np.zeros((stop - start, r, r))
        stack[first[lo:hi] - start, j[lo:hi], k[lo:hi]] = values[lo:hi]
        eigs = np.linalg.eigvals(stack)
        finite = np.isfinite(eigs).all(axis=1)
        real = np.abs(eigs.imag) <= _REAL_TOLERANCE * (1 + np.abs(eigs))
        bad = np.flatnonzero(~finite | ~real.any(axis=1))
        if len(bad):
            i = int(bad[0])
            what = "eigenvalue computation failed" if not finite[i] else "no real eigenvalue"
            raise NumericError(f"{what} for label {start + i}")
        dims += np.where(real, eigs.real, -np.inf).max(axis=1).tolist()
    return dims


def ring_product(a: FusionRing, b: FusionRing) -> FusionRing:
    """Label-pair product ring: N_{(i,i')(j,j')}^{(k,k')} = N_a N_b."""
    rb = b.rank
    labels = tuple(f"({x},{y})" for x in a.labels for y in b.labels)
    unit = tuple(u * rb + v for u in a.unit for v in b.unit)
    dual = tuple(
        a.dual[i] * rb + b.dual[j] for i in range(a.rank) for j in range(rb)
    )
    pa = np.repeat(np.arange(len(a.table)), len(b.table))
    pb = np.tile(np.arange(len(b.table)), len(a.table))
    keys = a.indices()[pa] * rb + b.indices()[pb]
    top = _max_abs(a.table[:, 3]) * _max_abs(b.table[:, 3])
    values = _widen(a.table[pa, 3], top) * b.table[pb, 3]
    return FusionRing.from_table(labels, unit, dual, np.column_stack((keys, values)))


def direct_sum(a: FusionRing, b: FusionRing, tags: tuple[str, str] = ("a", "b")) -> FusionRing:
    """Disjoint union of rings; the unit becomes decomposable."""
    ra = a.rank
    labels = tuple(f"{x}.{tags[0]}" for x in a.labels) + tuple(
        f"{x}.{tags[1]}" for x in b.labels
    )
    unit = tuple(a.unit) + tuple(u + ra for u in b.unit)
    dual = tuple(a.dual) + tuple(d + ra for d in b.dual)
    keys = np.concatenate((a.indices(), b.indices() + ra))
    values = np.concatenate((a.table[:, 3], b.table[:, 3]))
    return FusionRing.from_table(labels, unit, dual, np.column_stack((keys, values)))


# ---------------------------------------------------------------------------
# finite abelian groups: how elements are indexed, labelled and added
# ---------------------------------------------------------------------------


def group_strides(orders: tuple) -> list:
    """Element a of the product of cyclic groups of these orders has
    index sum_u a_u * stride_u (mixed radix, row-major over the
    factors, so indices follow the lex order of the elements); the zero
    element has index 0."""
    strides, stride = [], math.prod(orders)
    for order in orders:
        stride //= order
        strides.append(stride)
    return strides


def group_coordinates(orders: tuple) -> np.ndarray:
    """(s, |A|) int64: coordinate u of every element index."""
    size = math.prod(orders)
    indices = np.arange(size, dtype=np.int64)
    coords = np.empty((len(orders), size), dtype=np.int64)
    for u, (order, stride) in enumerate(zip(orders, group_strides(orders))):
        coords[u] = indices // stride % order
    return coords


def group_law(orders: tuple, among=None, dtype=np.int64) -> np.ndarray:
    """law[i, j] = index of a_i + a_j for a_i, a_j the elements with
    indices `among` (all of them by default), added coordinate by
    coordinate into one `dtype` table in place, which must hold twice
    the largest order and the largest index."""
    coords = group_coordinates(orders)
    if among is not None:
        coords = coords[:, among]
    coords = coords.astype(dtype, copy=False)
    law = np.zeros((coords.shape[1],) * 2, dtype=dtype)
    term = np.empty_like(law)
    for digit, order, stride in zip(coords, orders, group_strides(orders)):
        np.add(digit[:, None], digit[None, :], out=term)
        np.remainder(term, order, out=term)
        np.multiply(term, stride, out=term)
        law += term
    return law


def element_label(a: tuple) -> str:
    """The coordinates of a joined by commas; the trivial group's one
    element is labelled "0"."""
    return ",".join(map(str, a)) if a else "0"


def group_ring(orders: tuple[int, ...]) -> FusionRing:
    """Group ring of a product of cyclic groups: label i is the element
    with index i, so the labels come in lex order, and N_ij^k = 1
    exactly when k = law[i, j]."""
    labels = tuple(map(element_label, product(*map(range, orders))))
    law = group_law(orders)
    size = len(labels)
    index = np.arange(size, dtype=np.int64)
    # -a has coordinates -a_u mod n_u
    column = np.array(orders, dtype=np.int64)[:, None]
    neg = np.array(group_strides(orders), dtype=np.int64) @ (-group_coordinates(orders) % column)
    table = np.stack(
        (
            np.repeat(index, size),
            np.tile(index, size),
            law.ravel(),
            np.ones(size * size, dtype=np.int64),
        ),
        axis=1,
    )
    return FusionRing.from_table(labels, (0,), tuple(neg.tolist()), table)
