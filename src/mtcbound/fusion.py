"""Fusion rings: one sorted integer table of fusion coefficients, with
dual and unit data.

This is the Grothendieck-ring level of the story.  A ring here may have a
decomposable unit (several unit summands); the block structure of such
rings lives in :mod:`mtcbound.multifusion`.

A ring stores its coefficients as one table, `ring.table`: the nonzero
rows [i, j, k, N_ij^k] in (i, j, k) order, exactly the JSON "fusion"
rows.  The table is int64 when every entry fits and Python integers in
an object array otherwise.  Each key is also encoded as the int64 code
(i r + j) r + k, so a coefficient is a binary search in the sorted
codes, the rows of label i (or of the pair i, j) are one contiguous
slice, and construction checks range, sign and duplicates with numpy.
Every construction in the package (group rings, products, sums,
corners, Verlinde, JSON) goes through `FusionRing.from_table`;
`FusionRing(..., fusion=mapping)` is an input adapter for hand-built
rings that turns the mapping into rows first.  `ring.fusion` is a
read-only {(i, j, k): N} view of the table, built on first access.

Validation is exact.  Associativity multiplies slices of the dense
tensor for ranks up to `DENSE_RANK_CAP`, a block of labels i at a time.
Every partial sum of a product is at most r max N^2, so the products run
in float64 (BLAS) when that bound is below 2^53, in int64 when it is
below 2^63, and on Python integers otherwise; no product can wrap.
Beyond the cap one pair (i, j) at a time is multiplied, under the same
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import (
    DualMismatch,
    InputError,
    MultiplicityLimitError,
    NumericError,
    PerfectnessFailure,
)
from .report import ValidationReport

DENSE_RANK_CAP = 128

# every integer below 2^53 in absolute value is exact in float64, and
# int64 holds |x| < 2^63
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**63
# entries of dense tensor per associativity block
_BLOCK_ENTRIES = 2**21
# FP dimensions run in float64: multiplicities up to the cap are exact
# there and give finite dimensions and global dimensions
FP_MULTIPLICITY_CAP = 2**53
# an eigenvalue e counts as real when |Im e| <= _REAL_TOLERANCE (1 + |e|)
_REAL_TOLERANCE = 1e-10


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
        return (
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

    def _rows(self, i: int, j: int | None = None) -> np.ndarray:
        """The table rows of label i, or of the pair (i, j)."""
        r = self.rank
        lo = i * r * r if j is None else (i * r + j) * r
        hi = lo + (r * r if j is None else r)
        start, stop = np.searchsorted(self._codes, (lo, hi))
        return self.table[start:stop]

    def product_vector(self, i: int, j: int) -> np.ndarray:
        """(N_ij^k)_k, the coefficients of x_i x_j."""
        out = np.zeros(self.rank, dtype=self.table.dtype)
        rows = self._rows(i, j)
        out[rows[:, 2].astype(np.int64)] = rows[:, 3]
        return out

    @property
    def is_simple_unit(self) -> bool:
        return len(self.unit) == 1

    def dense(self) -> np.ndarray:
        """Dense [r, r, r] tensor (int64, or object when entries are
        big); refuses silly sizes."""
        r = self.rank
        if r > DENSE_RANK_CAP:
            raise InputError(f"dense tensor refused for rank {r} > {DENSE_RANK_CAP}")
        out = np.zeros((r, r, r), dtype=self.table.dtype)
        i, j, k = self.indices().T
        out[i, j, k] = self.table[:, 3]
        return out

    def left_matrix(self, i: int) -> np.ndarray:
        """Matrix (N_{ij}^k)_{jk} of multiplication by label i."""
        r = self.rank
        out = np.zeros((r, r), dtype=self.table.dtype)
        rows = self._rows(i)
        keys = rows[:, 1:3].astype(np.int64)
        out[keys[:, 0], keys[:, 1]] = rows[:, 3]
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
    """(m, 4) array of integer rows: int64 when every entry fits, else
    Python integers in an object array."""
    if not rows:
        return np.zeros((0, 4), dtype=np.int64)
    if max(map(abs, chain.from_iterable(rows))) < _INT64_LIMIT:
        return np.array(rows, dtype=np.int64)
    return np.array(rows, dtype=object)


def _assemble(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Table from int64 keys (m, 3) and integer values (m,)."""
    if values.dtype == object:
        out = np.empty((len(keys), 4), dtype=object)
        out[:, :3] = keys.astype(object)
        out[:, 3] = values
        return out
    return np.column_stack((keys, values)).astype(np.int64, copy=False)


def _json_table(triples: list) -> np.ndarray:
    """The table of JSON rows.  The first bad row or
    repeated (i, j, k) is named, row by row, before any check of the
    other fields."""
    _scan_rows(triples)
    return _table_of(triples)


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


def _first_repeat(codes: np.ndarray) -> int | None:
    """Index of the first code equal to an earlier one, or None."""
    order = np.argsort(codes, kind="stable")
    repeated = codes[order[1:]] == codes[order[:-1]]
    return int(order[1:][repeated].min()) if repeated.any() else None


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
        if max(map(abs, entries)) < _INT64_LIMIT:
            table = table.astype(np.int64)
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
        p = _first_repeat(codes)
        if p is not None:
            raise InputError(f"duplicate fusion triple {tuple(int(x) for x in keys[p])}")
        order = np.argsort(codes)
        codes, table = codes[order], table[order]
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
    first failing (i, j, k, l) in lexicographic order."""
    r = ring.rank
    values = ring.table[:, 3]
    bound = r * int(values.max()) ** 2 if len(values) else 0
    dtype = np.float64 if bound < _FLOAT_EXACT else np.int64 if bound < _INT64_LIMIT else object
    if r > DENSE_RANK_CAP:
        return _sparse_associativity(ring, dtype)
    n = ring.dense().astype(dtype)
    by_left = n.reshape(r, r * r)  # [m, (k, l)]
    by_right = n.reshape(r * r, r)  # [(j, k), m]
    step = max(1, _BLOCK_ENTRIES // (r * r * r))
    for start in range(0, r, step):
        block = n[start : start + step]  # [i, j, m]
        # left[i, j, k, l] = sum_m N_ij^m N_mk^l, right = sum_m N_jk^m N_im^l
        left = (block.reshape(-1, r) @ by_left).reshape(-1, r, r, r)
        right = np.matmul(by_right, block).reshape(-1, r, r, r)
        bad = np.argwhere(left != right)
        if len(bad):
            i, j, k, l = (int(t) for t in bad[0])
            return False, (start + i, j, k, l)
    return True, None


def _sparse_associativity(ring: FusionRing, dtype) -> tuple[bool, tuple | None]:
    """`_associativity` one pair (i, j) at a time, for ranks too large
    for the dense tensor: with A_i the matrix of left multiplication by
    x_i, (x_i x_j) x_k is sum_m N_ij^m A_m and x_i (x_j x_k) is A_j A_i."""
    for i in range(ring.rank):
        a_i = ring.left_matrix(i).astype(dtype)
        for j in range(ring.rank):
            left = np.zeros_like(a_i)
            for _, _, m, v in ring._rows(i, j).tolist():
                left += ring.left_matrix(m).astype(dtype) * v
            right = ring.left_matrix(j).astype(dtype) @ a_i
            bad = np.argwhere(left != right)
            if len(bad):
                return False, (i, j, int(bad[0][0]), int(bad[0][1]))
    return True, None


# ---------------------------------------------------------------------------
# decategorified rigidity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """B_{ij} = multiplicity of unit summands inside x_i x_j."""

    entries: tuple
    permutation: tuple

    def to_json_dict(self) -> dict:
        return {"entries": [list(row) for row in self.entries], "permutation": list(self.permutation)}


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

    Raises MultiplicityLimitError on a multiplicity above
    FP_MULTIPLICITY_CAP, naming the first such row."""
    over = np.flatnonzero(ring.table[:, 3] > FP_MULTIPLICITY_CAP)
    if len(over):
        i, j, k, _ = ring.table[over[0]].tolist()
        raise MultiplicityLimitError(
            f"multiplicity N[{i},{j},{k}] exceeds cap 2^53 for FP dimensions"
        )
    dims = []
    for i in range(ring.rank):
        eigs = np.linalg.eigvals(ring.left_matrix(i).astype(np.float64))
        if not np.all(np.isfinite(eigs)):
            raise NumericError(f"eigenvalue computation failed for label {i}")
        real = [e.real for e in eigs if abs(e.imag) <= _REAL_TOLERANCE * (1 + abs(e))]
        if not real:
            raise NumericError(f"no real eigenvalue for label {i}")
        dims.append(max(real))
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
    va, vb = a.table[pa, 3], b.table[pb, 3]
    top_a = int(va.max()) if len(va) else 0
    top_b = int(vb.max()) if len(vb) else 0
    if top_a * top_b >= _INT64_LIMIT:
        va, vb = va.astype(object), vb.astype(object)
    return FusionRing.from_table(labels, unit, dual, _assemble(keys, va * vb))


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
    return FusionRing.from_table(labels, unit, dual, _assemble(keys, values))


def group_ring(orders: tuple[int, ...]) -> FusionRing:
    """Group ring of a product of cyclic groups, labels in lex order."""
    from itertools import product

    elements = list(product(*(range(n) for n in orders))) or [()]
    labels = tuple(",".join(str(c) for c in e) if e else "0" for e in elements)
    # element indices are mixed radix, row-major over the factors
    size = len(elements)
    index = np.arange(size, dtype=np.int64)
    law = np.zeros((size, size), dtype=np.int64)
    neg = np.zeros(size, dtype=np.int64)
    stride = size
    for n in orders:
        stride //= n
        digit = index // stride % n
        law += (digit[:, None] + digit[None, :]) % n * stride
        neg += -digit % n * stride
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
