"""Exact S/T-matrix layer: validation, Verlinde fusion, Gauss sums,
central charge, and the reverse/box-tensor/double constructions.

Conventions are unitary: S is symmetric with S = S^(-1) conjugate,
d_i = S_{ui}/S_{uu} > 0 for the unit row u, D = 1/S_{uu} > 0, and the
T vector is diagonal with twists theta_i = T_i/T_u.  Everything is
checked exactly except positivity, whose sign is certified numerically
(`Cyclotomic.real_sign`).

Matrix arithmetic over Q(zeta_N) runs on one packed representation,
`PackedMatrix`: an integer array of shape (rows, cols, phi(N)) holding
power-basis coefficients over one common denominator.  A product is
phi integer matrix products into a (2 phi - 1)-long convolution,
followed by one product with the reduction matrix of Phi_N.  Each step
is exact: a worst-case bound on its partial sums, computed from the
entry sizes, picks float64, int64 or Python integers by the rule of
`mtcbound.fusion`.  S^2 (the dual permutation), the balancing
identity (ST)^3 = (tau+/D) S^2 and the Verlinde sum all use it, and
since the power basis is a basis, "is a permutation matrix" and "is a
non-negative integer" are read off the packed coefficients directly.
The Verlinde sum is symmetric in i and j, so `verlinde_table` computes
the pairs i <= j only, as one packed product per block of pairs of at
most `fusion._BLOCK_BYTES` of int64 coefficients (2^18 of them), and
mirrors the rest.  A packed matrix is always over the lcm of its
entries' conductors; products, entrywise products and comparisons embed
their operands into the lcm of the two.

`validate_modular` answers pointed data with a group ring by one
certificate, `_pointed_certificate`: integer checks of O(|G| r^2) on a
generating set G that prove the data those of a nondegenerate metric
group with its group ring, from which every check follows (its
docstring has the proofs).  The certificate is kept on the datum, and
`pointed.lagrangian_candidates` reads it for the unhinted verdict.  On
all other data the checks run one by one (`_axiom_checks`), and decide
balancing, the Gauss identity and the two Verlinde checks by one of
two routes.  Data that declare a fusion ring and pass every earlier
check take the ring route, `_ring_equations`:
one read of conj(S) = C S and one pass over the sorted ring table that
checks S_um sum_k N_ij^k S_km = S_im S_jm and theta_i theta_j S_ij =
sum_k N_i*j^k theta_k S_uk side by side, read off the products of two S
entries and the S entries rotated by the twists, with no inverse, no
r x r matrix product and no Gauss sum.  Its docstring proves that these
imply the Verlinde formula for the declared ring, (ST)^3 = (tau+/D) S^2
and tau+ tau- = D^2.  Ring-less data, and data on which a precondition
or either equation fails, take the full route: `verlinde_table` against
the ring, (ST)^3 against (tau+/D) S^2 and tau+ tau- against D^2, which
name the first failing key.  Both routes give the same report.

Derived invariants (packed S and S^2, dims, twists, D, the dual
permutation, the Gauss sums, and through `ModularData._derived` the
central charge) are computed at most once per `ModularData`, in a
private cache that equality and repr ignore.

Scalar work runs once per distinct value, not once per label or entry.
Modular data repeats few values: a pointed S has one per pairing
exponent, and the rank-144 double of toric code x Ising has 7.  S and T
are each held once, as a `FactoredMatrix`: the distinct entries, each a
normalised (conductor, nums, den), and an integer slot array (two axes
for S, one for T).  `reverse` conjugates the entries, `box_tensor`
multiplies each pair of them once and gathers by the Kronecker of the
slots, and packed S or T is a gather of one table of the entries.
Equal slots hold equal values, but distinct slots may hold one value
at different conductors (zeta_4 and zeta_8^2 over Q(zeta_8)).  Every
"same value" test within a datum therefore compares value ids
(`_value_ids`: one integer per distinct row of the table of entries)
gathered by slot: the symmetry of S, the twists' dual invariance and
the ring route's conj(S) = C S.  Per-value
maps (dims, twists, dim floors, unit-row inverses, roots of unity, the
JSON form) run once per distinct slot, and the dims' positivity and
sum of squares once per distinct unit-row id, a failure named at the
first label that carries the value.
The twists are read as exponents once per datum, theta_i = zeta_M^e_i,
by one reader, `_twist_exponents`: the root exponents
(`FactoredMatrix.root_exponents`: each distinct entry that an exact
Kronecker test shows to be a root of unity is read by
`as_root_of_unity`) of theta, which is T itself when T_u = 1 and
otherwise T's distinct entries over T_u on T's slots.  The
root-of-unity check, the ring route's twist equation, the Gauss sum,
the pointed route and the search's theta_i = 1 (exponent 0) read
them.  The Gauss sum tau+- = sum_i d_i^2 theta_i^(+-1) is one
integer product, cached per datum by `_gauss_sum`: the histogram of
(unit-row S slot, +-e_i mod M) pairs times the power rows of zeta_M
gives one class sum per distinct unit-row entry, then one d^2 product
per class.  `central_charge`, `gauss_sums` and the full routes'
balancing and Gauss-identity checks of `validate_modular` read it, and
`central_charge` reads the root of unity tau+/D off the one product
tau+ S_uu with `cyclotomic._root_phase`, the exact kernel that
`as_root_of_unity` and `pointed.milgram_signature` share, and whose
None proves there is none; no other code decides whether a value is
a root of unity.  A zero twist leaves tau- undefined, and the
Gauss-identity check fails at that label.
`ModularData.from_json_dict` parses each distinct scalar object once.
"""

from __future__ import annotations

import marshal
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    ONE,
    ZERO,
    _embed_nums,
    _lcm,
    _mul_nums,
    _power_row,
    _root_phase,
    euler_phi,
    from_angle,
)
from .errors import (
    GaussIdentityFailure,
    InputError,
    NonIntegralVerlinde,
    NonModular,
    NotRootOfUnity,
    SizeLimit,
)
from .fusion import (
    FusionRing,
    _block_step,
    _exact_dtype,
    _exponent_array,
    _label_blocks,
    _max_abs,
    _settle,
    _widen,
    first_difference,
    ring_product,
)
from .report import ValidationReport

# `_ring_equations` forms every product of two distinct S entries, as
# (entries^2, 2 phi - 1) coefficients, and rotated S entries, (rows, L);
# above this many it leaves a table's checks to the full routes.
_PRODUCT_TABLE_CAP = 2**20

# `box_tensor` refuses a product whose fusion table (the product of the
# two row counts) or S (rank^2 entries) would exceed this many entries.
# `ring_product` peaks at about 150 bytes per output row (measured at
# 2^20 rows), so a product at the cap takes about 3 GB; the largest
# product the tests and fixtures build has 25,600 rows.
PRODUCT_SIZE_CAP = 2 * 10**7


# ---------------------------------------------------------------------------
# packed matrices over Q(zeta_N)
# ---------------------------------------------------------------------------


def _int_table(rows) -> tuple[np.ndarray, int]:
    """(matrix, norm): an integer matrix and its largest column sum of
    absolute values, which bounds |x @ matrix| by norm * max|x|."""
    matrix = _settle(np.array(rows, dtype=object))
    return matrix, int(np.abs(matrix).sum(axis=0).max())


@lru_cache(maxsize=None)
def _power_rows(n: int, count: int) -> tuple[np.ndarray, int]:
    """Maps coefficients of 1, x, ..., x^(count - 1) to x^k mod Phi_n."""
    return _int_table([_power_row(n, k) for k in range(count)])


def _reduction_table(n: int) -> tuple[np.ndarray, int]:
    """`_power_rows` for a product's coefficients, 1, ..., x^(2 phi - 2)."""
    return _power_rows(n, 2 * euler_phi(n) - 1)


@lru_cache(maxsize=None)
def _power_table(n_from: int, n_to: int, power: int = 1) -> tuple[np.ndarray, int]:
    """`_embed_nums(., n_from, n_to, power)` on the power basis: the
    embedding for power 1, complex conjugation for n_to = n_from and -1."""
    units = [_power_row(n_from, k) for k in range(euler_phi(n_from))]
    return _int_table([_embed_nums(unit, n_from, n_to, power) for unit in units])


def _linear(a: np.ndarray, table: tuple[np.ndarray, int]) -> np.ndarray:
    """a (..., p) times an integer table (p, q), exactly."""
    matrix, norm = table
    dtype = _exact_dtype(_max_abs(a) * norm)
    return _settle(a.astype(dtype) @ matrix.astype(dtype))


def _conv_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of polynomial matrices a (r, m, p) and b (m, c, q):
    coefficient arrays (r, c, p + q - 1), one integer matmul per power
    of a."""
    r, m, p = a.shape
    _, c, q = b.shape
    dtype = _exact_dtype(m * min(p, q) * _max_abs(a) * _max_abs(b))
    a, flat = a.astype(dtype), np.ascontiguousarray(b, dtype=dtype).reshape(m, c * q)
    out = np.zeros((r, c, p + q - 1), dtype=dtype)
    for k in range(p):
        out[:, :, k : k + q] += (a[:, :, k] @ flat).reshape(r, c, q)
    return _settle(out)


def _conv_entrywise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise polynomial product, numpy broadcasting over the leading
    axes: (..., p) and (..., q) give (..., p + q - 1)."""
    p, q = a.shape[-1], b.shape[-1]
    dtype = _exact_dtype(min(p, q) * _max_abs(a) * _max_abs(b))
    a, b = a.astype(dtype), b.astype(dtype)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (p + q - 1,), dtype=dtype)
    for k in range(p):
        out[..., k : k + q] += a[..., k : k + 1] * b
    return _settle(out)


class PackedMatrix:
    """A matrix over Q(zeta_N), entry (i, j) = sum_k nums[i, j, k] zeta_N^k / den.

    nums holds integers by the rule of `mtcbound.fusion`, so every
    operation is exact.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums: np.ndarray, den: int):
        self.conductor = conductor
        self.nums = nums
        self.den = den

    def entry(self, i: int, j: int) -> Cyclotomic:
        return Cyclotomic(self.conductor, tuple(int(v) for v in self.nums[i, j]), self.den)

    def embed(self, conductor: int) -> "PackedMatrix":
        """The same matrix over Q(zeta_conductor); needs self.conductor | conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise InputError(f"cannot embed conductor {self.conductor} into {conductor}")
        nums = _linear(self.nums, _power_table(self.conductor, conductor))
        return PackedMatrix(conductor, nums, self.den)

    def _unified(self, other: "PackedMatrix") -> tuple:
        n = _lcm(self.conductor, other.conductor)
        return n, self.embed(n).nums, other.embed(n).nums

    def __matmul__(self, other: "PackedMatrix") -> "PackedMatrix":
        n, a, b = self._unified(other)
        nums = _linear(_conv_matmul(a, b), _reduction_table(n))
        return PackedMatrix(n, nums, self.den * other.den)

    def times(self, other: "PackedMatrix") -> "PackedMatrix":
        """Entrywise product, broadcasting a (1, c) row or a (1, 1) scalar."""
        n, a, b = self._unified(other)
        nums = _linear(_conv_entrywise(a, b), _reduction_table(n))
        return PackedMatrix(n, nums, self.den * other.den)

    def conj(self) -> "PackedMatrix":
        n = self.conductor
        return PackedMatrix(n, _linear(self.nums, _power_table(n, n, -1)), self.den)

    def transpose(self) -> "PackedMatrix":
        """The transpose, copied into row-major order: a right operand of
        `@` is then read in order, however many products take it."""
        nums = np.ascontiguousarray(self.nums.transpose(1, 0, 2))
        return PackedMatrix(self.conductor, nums, self.den)

    def entries_equal(self, other: "PackedMatrix") -> np.ndarray:
        """Boolean array: entry (i, j) of self equals that of other."""
        _, a, b = self._unified(other)
        a = _widen(a, _max_abs(a) * other.den) * other.den
        b = _widen(b, _max_abs(b) * self.den) * self.den
        return (a == b).all(axis=-1)


def _value_ids(nums: np.ndarray) -> np.ndarray:
    """An integer id per row of nums (k, phi), the packed coefficients of
    k values over one conductor and one denominator.  The power basis is
    a basis, so two rows hold one value iff they are equal: equal values
    share an id.  Ids count up in order of first appearance."""
    ids: dict = {}
    return np.array([ids.setdefault(tuple(row), len(ids)) for row in nums.tolist()], dtype=np.intp)


class FactoredMatrix:
    """Entry x is entries[slots[x]], for a slot array of two axes (S) or
    one (T): each normalised (conductor, nums, den) once, in row-major
    order of first appearance, and a read-only integer slot array.  A
    matrix reads back as rows of tuples, a vector as its scalars.

    Equal slots hold equal values, but distinct slots may hold one value
    at different conductors (zeta_4 and zeta_8^2).  Within one matrix,
    values compare by `value_ids` gathered by slot; `==` compares two
    matrices in value, one pair of slots at a time."""

    __slots__ = ("entries", "slots", "_table", "_packed", "_ids", "_roots")

    def __init__(self, entries: tuple, slots: np.ndarray):
        slots.flags.writeable = False
        self.entries = entries
        self.slots = slots
        self._table = self._packed = self._ids = self._roots = None

    @staticmethod
    def gathered(value, index: np.ndarray) -> "FactoredMatrix":
        """Entry x = value(index[x]): value runs once per distinct index,
        in row-major order of first use; equal values share a slot."""
        used, first, inverse = np.unique(index.ravel(), return_index=True, return_inverse=True)
        keys: dict = {}
        slot = np.empty(len(used), dtype=np.intp)
        for u in np.argsort(first).tolist():
            e = value(int(used[u]))
            slot[u] = keys.setdefault((e.conductor, e.nums, e.den), (len(keys), e))[0]
        slots = slot[inverse].reshape(index.shape).astype(np.min_scalar_type(len(keys)))
        return FactoredMatrix(tuple(e for _, e in keys.values()), slots)

    @staticmethod
    def of(rows) -> "FactoredMatrix":
        """Factor rows of Cyclotomic scalars of one length."""
        keys: dict = {}
        index = [
            [keys.setdefault((e.conductor, e.nums, e.den), (len(keys), e))[0] for e in row]
            for row in rows
        ]
        slots = np.array(index, dtype=np.min_scalar_type(len(keys)))
        return FactoredMatrix(tuple(e for _, e in keys.values()), slots)

    @staticmethod
    def vector(values) -> "FactoredMatrix":
        """Factor a vector of Cyclotomic scalars."""
        row = FactoredMatrix.of((values,))
        return FactoredMatrix(row.entries, row.slots[0])

    def conj(self) -> "FactoredMatrix":
        """Entrywise conjugate.  Conjugation keeps each conductor and maps
        distinct entries to distinct entries, so the slots stay."""
        return FactoredMatrix(tuple(e.conj() for e in self.entries), self.slots)

    def kron(self, other: "FactoredMatrix") -> "FactoredMatrix":
        """The Kronecker product, entry (i x, j y) = self[i, j] other[x, y]
        (for vectors, entry i x = self[i] other[x]): one product per pair
        of distinct entries, gathered by the Kronecker of the slots."""
        ea, eb = self.entries, other.entries
        axes = self.slots.ndim
        # in intp: narrow slots would wrap, e.g. uint8 at 17 * 16 + 16 > 255
        pairs = np.add.outer(self.slots.astype(np.intp) * len(eb), other.slots)
        pairs = pairs.transpose([k for axis in range(axes) for k in (axis, axes + axis)])
        shape = tuple(a * b for a, b in zip(self.slots.shape, other.slots.shape))
        return FactoredMatrix.gathered(
            lambda p: ea[p // len(eb)] * eb[p % len(eb)], pairs.reshape(shape)
        )

    def table(self) -> PackedMatrix:
        """The distinct entries packed over the lcm of their conductors,
        as a column: row k is entries[k].  Made once, then kept."""
        if self._table is None:
            n = math.lcm(*(e.conductor for e in self.entries))
            den = math.lcm(*(e.den for e in self.entries))
            rows = [
                [[v * (den // e.den) for v in _embed_nums(e.nums, e.conductor, n)]]
                for e in self.entries
            ]
            self._table = PackedMatrix(n, _settle(np.array(rows, dtype=object)), den)
        return self._table

    def packed(self) -> PackedMatrix:
        """The table of the distinct entries gathered by the slots, over
        the lcm of their conductors.  Made once, then kept."""
        if self._packed is None:
            table = self.table()
            self._packed = PackedMatrix(table.conductor, table.nums[self.slots, 0], table.den)
        return self._packed

    def value_ids(self) -> np.ndarray:
        """`_value_ids` of the entries packed over their lcm conductor:
        ids[k] belongs to entries[k], so ids[slots] is one id per entry
        of the matrix, equal exactly where the values are.  Made once,
        then kept."""
        if self._ids is None:
            self._ids = _value_ids(self.table().nums[:, 0])
        return self._ids

    def root_exponents(self) -> tuple[int, np.ndarray]:
        """(m, roots): entries[k] = zeta_m^roots[k], or roots[k] = -1 when
        entries[k] is no root of unity, for m = lcm(2, n) and n the lcm
        conductor of the entries (the table is made first, so a conductor
        past the table cap is refused before any entry is read).  Made
        once, then kept.

        Every root of unity of Q(zeta_n) has an order dividing m, so an
        entry read as e^(2 pi i k/L) by `as_root_of_unity`, the exact
        kernel `_root_phase`, has exponent k m/L.  An entry x reaches the
        kernel only if its denominator is 1 and x conj(x) = 1, and then it
        is a root of unity: the power basis is an integral basis of
        Z[zeta_c], so den 1 makes x an algebraic integer; Q(zeta_c) is a
        CM field (or Q) with an abelian Galois group, so conjugation
        commutes with every embedding sigma and |sigma(x)|^2 =
        sigma(x conj(x)) = 1; and by Kronecker's theorem an algebraic
        integer whose conjugates all have absolute value 1 is a root of
        unity.  The kernel thus reads only roots of unity, whose
        coefficients are small, and every other entry is refused
        exactly, with no float."""
        if self._roots is None:
            m = _lcm(2, self.table().conductor)
            roots = []
            for e in self.entries:
                n, x = e.conductor, e.nums
                unit = e.den == 1 and _mul_nums(n, x, _embed_nums(x, n, n, -1)) == _power_row(n, 0)
                root = e.as_root_of_unity() if unit else None
                roots.append(-1 if root is None else root[0] * m // root[1])
            self._roots = m, np.array(roots)
        return self._roots

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, i):
        slots = self.slots[i]
        if slots.ndim == 0:
            return self.entries[int(slots)]
        return tuple(map(self.entries.__getitem__, slots.tolist()))

    def __iter__(self):
        entries = self.entries
        if self.slots.ndim == 1:
            return map(entries.__getitem__, self.slots.tolist())
        return (tuple(map(entries.__getitem__, row)) for row in self.slots.tolist())

    def __eq__(self, other):
        if not isinstance(other, FactoredMatrix):
            return NotImplemented
        if self is other:
            return True
        if self.slots.shape != other.slots.shape:
            return False
        width = len(other.entries)
        pairs = np.unique(self.slots.astype(np.intp) * width + other.slots).tolist()
        return all(self.entries[p // width] == other.entries[p % width] for p in pairs)

    def __repr__(self) -> str:
        return f"FactoredMatrix(entries={self.entries!r}, slots={self.slots.tolist()!r})"


@dataclass(frozen=True)
class ModularData:
    s: FactoredMatrix  # rows given here are checked and factored once
    t: FactoredMatrix  # and so is a T given as a sequence
    unit_index: int = 0
    ring: FusionRing | None = None

    def __post_init__(self):
        s = self.s
        if not isinstance(s, FactoredMatrix):
            r = len(s)
            if r == 0:
                raise InputError("empty S matrix")
            s = tuple(tuple(row) for row in s)
            if any(len(row) != r for row in s):
                raise InputError("S must be square")
            if not _all_cyclotomic(chain.from_iterable(s)):
                raise InputError("S entries must be cyclotomic scalars")
            s = FactoredMatrix.of(s)
        elif s.slots.ndim != 2 or len(set(s.slots.shape)) != 1:
            raise InputError("S must be square")
        r = len(s)
        t = self.t
        if not isinstance(t, FactoredMatrix):
            t = tuple(t)
            if len(t) != r or not _all_cyclotomic(t):
                raise InputError("T must be a length-r vector of cyclotomic scalars")
            t = FactoredMatrix.vector(t)
        elif t.slots.shape != (r,):
            raise InputError("T must be a length-r vector of cyclotomic scalars")
        if isinstance(self.unit_index, bool) or not isinstance(self.unit_index, int):
            raise InputError(f"unit index must be an integer, got {self.unit_index!r}")
        if not 0 <= self.unit_index < r:
            raise InputError(f"unit index {self.unit_index} out of range")
        if self.ring is not None:
            if self.ring.rank != r:
                raise InputError("ring rank does not match S")
            if self.ring.unit != (self.unit_index,):
                raise InputError("modular data needs the ring's simple unit at unit_index")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_cache", {})

    def _derived(self, key: str, compute):
        """compute(self), evaluated once per datum and then cached."""
        cache = self._cache
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    # -- derived quantities ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.s)

    @property
    def s_unit(self) -> Cyclotomic:
        return self.s.entries[self.s.slots[self.unit_index, self.unit_index]]

    def packed_s_squared(self) -> PackedMatrix:
        return self._derived("packed_s2", lambda md: md.s.packed() @ md.s.packed())

    def total_dim(self) -> Cyclotomic:
        """D = 1/S_{uu}, exact."""
        if self.s_unit.is_zero():
            raise NonModular("S_{uu} = 0")
        return self._derived("total_dim", lambda md: md.s_unit.inverse())

    def dims(self) -> tuple:
        """Quantum dimensions d_i = S_{ui}/S_{uu}."""
        inv = self.total_dim()
        return self._derived(
            "dims",
            lambda md: _slot_map(lambda x: x * inv, md.s.entries, md.s.slots[md.unit_index]),
        )

    def theta(self) -> tuple:
        """Twists theta_i = T_i/T_u."""
        tu = self.t[self.unit_index]
        if tu.is_zero():
            raise NonModular("T_u = 0, twists undefined")
        return self._derived(
            "theta", lambda md: _slot_map(tu.inverse().__mul__, md.t.entries, md.t.slots)
        )

    def dual_permutation(self) -> tuple | None:
        """The permutation C with S^2 = C, or None if S^2 is no permutation."""
        return self._derived("dual", _dual_permutation)

    def conductor(self) -> int:
        return self._derived("conductor", _conductor)

    def pointed_certificate(self) -> bool:
        """Whether `_pointed_certificate` proves these the pointed data of
        a nondegenerate metric group with its group ring."""
        return self._derived("pointed", _pointed_certificate)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The JSON form; the entries of one slot share one scalar object."""
        s, t = (tuple(map(Cyclotomic.to_json_dict, m.entries)) for m in (self.s, self.t))
        return {
            "ring": self.ring.to_json_dict() if self.ring is not None else None,
            "unit": self.unit_index,
            "conductor": self.conductor(),
            "S": [list(map(s.__getitem__, row)) for row in self.s.slots.tolist()],
            "T": list(map(t.__getitem__, self.t.slots.tolist())),
        }

    @staticmethod
    def from_json_dict(obj) -> "ModularData":
        if not isinstance(obj, dict):
            raise InputError("modular section must be an object")
        for key in ("ring", "unit", "conductor", "S", "T"):
            if key not in obj:
                raise InputError(f"modular section missing key {key!r}")
        ring = None if obj["ring"] is None else FusionRing.from_json_dict(obj["ring"])
        if not isinstance(obj["S"], list) or not isinstance(obj["T"], list):
            raise InputError("S and T must be arrays")
        if not all(isinstance(row, list) for row in obj["S"]):
            raise InputError("S must be an array of rows")
        parse = _scalar_parser()
        s = tuple(tuple(map(parse, row)) for row in obj["S"])
        t = tuple(map(parse, obj["T"]))
        md = ModularData(s=s, t=t, unit_index=obj["unit"], ring=ring)
        if type(obj["conductor"]) is not int or md.conductor() != obj["conductor"]:
            raise InputError(
                f"conductor field {obj['conductor']} does not match entries ({md.conductor()})"
            )
        return md


def _all_cyclotomic(values) -> bool:
    """Every value is a `Cyclotomic`: one C-level scan of the types."""
    return all(issubclass(kind, Cyclotomic) for kind in set(map(type, values)))


def _conductor(md: ModularData) -> int:
    """lcm of the entry conductors."""
    return math.lcm(*{e.conductor for e in chain(md.s.entries, md.t.entries)})


def _scalar_parser():
    """`Cyclotomic.from_json_dict`, run once per distinct scalar object
    of one document.  The cache key is the object's `marshal` bytes: one
    C-level step that records every type, so two objects share a key
    only if they are equal JSON values of equal types (`True` is not
    `1`, "12" is not ["1", "2"]), and the parse, which reads nothing
    else, gives both the same scalar.  Anything `marshal` refuses is
    parsed on its own, so a malformed entry raises where it stands."""
    parsed: dict = {}

    def parse(obj) -> Cyclotomic:
        try:
            key = marshal.dumps(obj)
        except ValueError:  # nested beyond marshal's depth limit
            return Cyclotomic.from_json_dict(obj)
        value = parsed.get(key)
        if value is None:
            value = parsed[key] = Cyclotomic.from_json_dict(obj)
        return value

    return parse


def _slot_map(f, entries: tuple, slots: np.ndarray) -> tuple:
    """tuple(f(entries[k]) for k in slots), f evaluated once per
    distinct slot."""
    slots = slots.tolist()
    images = {k: f(entries[k]) for k in dict.fromkeys(slots)}
    return tuple(map(images.__getitem__, slots))


def _dual_permutation(md: ModularData) -> tuple | None:
    s2 = md.packed_s_squared()
    nums = s2.nums
    support = (nums != 0).any(axis=2)
    if (support.sum(axis=1) != 1).any():
        return None
    perm = support.argmax(axis=1)
    hits = nums[np.arange(md.rank), perm]
    # each hit must be 1 = den * zeta^0 / den
    if (hits[:, 1:] != 0).any() or (_widen(hits[:, 0], s2.den) != s2.den).any():
        return None
    if sorted(perm.tolist()) != list(range(md.rank)):
        return None
    return tuple(perm.tolist())


def _dual_problem(perm: tuple | None, u: int) -> str | None:
    """Why the dual permutation perm (`ModularData.dual_permutation`) is
    no involution fixing the unit u, or None when it is one."""
    if perm is None:
        return "S^2 is not a permutation matrix"
    if perm[u] != u or any(perm[j] != i for i, j in enumerate(perm)):
        return "S^2 permutation is not an involution fixing the unit"
    return None


# ---------------------------------------------------------------------------
# Verlinde fusion
# ---------------------------------------------------------------------------


def verlinde(md: ModularData) -> dict:
    """Exact fusion tensor N_{ij}^k = sum_m S_im S_jm conj(S_km) / S_um,
    as {(i, j, k): N} over the nonzero coefficients.

    Raises NonIntegralVerlinde when any coefficient fails to be a
    non-negative integer, and NonModular when the unit row has a zero.
    """
    table = verlinde_table(md)
    return dict(zip(map(tuple, table[:, :3].tolist()), table[:, 3].tolist()))


def verlinde_table(md: ModularData) -> np.ndarray:
    """`verlinde` as fusion-table rows [i, j, k, N], in (i, j, k) order.

    The sum is symmetric in i and j for any S, so only the pairs i <= j
    are computed, a block of pairs at a time: the rows S_im S_jm / S_um
    of the block times conj(S)^T, one packed matrix product per block,
    the same `@` that forms S^2 and (S T)^3.
    Each off-diagonal row is mirrored to (j, i, k), and the rows are
    sorted once.  The first bad coefficient in (i, j, k) order has
    i <= j (its mirror would come earlier), and the blocks run in that
    order, so the error names the same coefficient as a full scan.
    """
    u = md.unit_index
    unit_row = md.s[u]
    if any(x.is_zero() for x in unit_row):
        raise NonModular("unit row of S has a zero entry")
    s = md.s.packed()
    inverses = _slot_map(Cyclotomic.inverse, md.s.entries, md.s.slots[u])
    weighted = s.times(FactoredMatrix.of((inverses,)).packed())
    conj_t = s.conj().transpose()
    r, phi = md.rank, s.nums.shape[2]
    first, second = np.triu_indices(r)  # the pairs i <= j, row-major
    step = _block_step(r * (2 * phi - 1), 8)
    keys, values = [], []
    for start in range(0, len(first), step):
        i, j = first[start : start + step], second[start : start + step]
        left = PackedMatrix(s.conductor, s.nums[i], s.den)
        right = PackedMatrix(weighted.conductor, weighted.nums[j], weighted.den)
        fused = left.times(right) @ conj_t
        nums, den = fused.nums, fused.den
        value = _widen(nums[:, :, 0], den)
        bad = (nums[:, :, 1:] != 0).any(axis=2) | (value < 0) | (value % den != 0)
        if bad.any():
            p, k = (int(x) for x in np.argwhere(bad)[0])
            raise NonIntegralVerlinde(f"N[{int(i[p])},{int(j[p])},{k}] = {fused.entry(p, k)}")
        p, k = np.nonzero(value)
        keys.append(np.stack((i[p], j[p], k), axis=1))
        values.append(value[p, k] // den)
    keys, values = np.concatenate(keys).astype(np.int64), np.concatenate(values)
    mirror = keys[:, 0] != keys[:, 1]
    keys = np.concatenate((keys, keys[mirror][:, [1, 0, 2]]))
    values = np.concatenate((values, values[mirror]))
    order = np.argsort((keys[:, 0] * r + keys[:, 1]) * r + keys[:, 2])
    return np.column_stack((keys[order], _settle(values[order])))


def ring_from_verlinde(md: ModularData, labels: tuple | None = None) -> FusionRing:
    """Build the fusion ring from S; dual comes from S^2."""
    perm = md.dual_permutation()
    if perm is None:
        raise NonModular("S^2 is not a permutation matrix")
    table = verlinde_table(md)
    if labels is None:
        labels = md.ring.labels if md.ring is not None else tuple(
            f"x{i}" for i in range(md.rank)
        )
    return FusionRing.from_table(tuple(labels), (md.unit_index,), perm, table)


# ---------------------------------------------------------------------------
# Gauss sums and central charge
# ---------------------------------------------------------------------------


def _twist_exponents(md: ModularData) -> tuple:
    """(None, order, exponents) with theta_i = zeta_order^exponents[i] and
    order the least such, or ((i,), None, None) for the first label i
    whose twist is no root of unity.  Raises NonModular when T_u = 0.

    Read off `FactoredMatrix.root_exponents` of theta: T itself when
    T_u = 1, as on every shipped fixture and every metric group,
    otherwise T's distinct entries times 1/T_u on T's slots, one product
    per distinct entry.  The least order is m over the gcd of m and
    every exponent, and the exponents are an index array
    (`fusion._exponent_array`).  Once per datum.
    """

    def compute(md: ModularData) -> tuple:
        theta = md.t
        tu = theta[md.unit_index]
        if tu.is_zero():
            raise NonModular("T_u = 0, twists undefined")
        if tu != ONE:
            inverse = tu.inverse()
            theta = FactoredMatrix(tuple(inverse * e for e in theta.entries), theta.slots)
        m, roots = theta.root_exponents()
        if roots.min() < 0:
            return (int(np.flatnonzero(roots[theta.slots] < 0)[0]),), None, None
        g = math.gcd(m, *roots.tolist())
        return None, m // g, _exponent_array((roots // g).tolist(), m // g)[theta.slots]

    return md._derived("twist_exponents", compute)


def _class_total(
    md: ModularData, columns: np.ndarray, table: tuple, n: int, den: int
) -> Cyclotomic:
    """sum_i d_i^2 x_i for x_i = row columns[i] of an integer table
    (matrix, norm) of coefficients over Q(zeta_n) and den, norm its
    largest column sum of |entries|: the histogram of (unit-row S slot,
    column) pairs times the matrix gives one class sum per distinct
    unit-row entry a (none above the rank times the norm), then each
    class takes one d_a^2 product (none on the slot of S_uu, where
    d = 1)."""
    unit_row = md.s.slots[md.unit_index]
    classes = sorted(set(unit_row.tolist()))
    matrix, norm = table
    width = len(matrix)
    if len(classes) == 1:
        count = np.bincount(columns, minlength=width)[None]
    else:
        row = np.searchsorted(classes, unit_row)
        count = np.bincount(row * width + columns, minlength=len(classes) * width)
    count = count.reshape(len(classes), width)
    sums = _widen(count, len(unit_row) * norm) @ matrix
    terms = []
    for a, class_sum in zip(classes, sums.tolist()):
        term = Cyclotomic(n, tuple(class_sum), den)
        if a != unit_row[md.unit_index]:
            d = md.s.entries[a] * md.total_dim()
            term = d * d * term
        terms.append(term)
    return reduce(operator.add, terms)


def _slot_gauss_sum(md: ModularData, sign: int) -> Cyclotomic:
    """tau+- by T slots, for twists that are not all roots of unity: the
    class sums of the packed table of the T entries (of their inverses
    for tau-), then one division by T_u, nonzero in both callers.  Not cached."""
    tu = md.t[md.unit_index]
    t = md.t
    if sign < 0:
        t = FactoredMatrix(tuple(e.inverse() for e in t.entries), t.slots)
    if md.s_unit.is_zero():
        raise NonModular("S_{uu} = 0")
    table = t.table()
    nums = table.nums[:, 0]
    rows = (nums, int(np.abs(nums).sum(axis=0).max()))
    total = _class_total(md, t.slots, rows, table.conductor, table.den)
    return total * (tu.inverse() if sign > 0 else tu)


def _gauss_sum(md: ModularData, sign: int) -> Cyclotomic:
    """tau+ (sign 1) or tau- (sign -1) = sum_i d_i^2 theta_i^sign,
    computed once per datum as one integer product.

    With d_i = S_ui D and theta_i = zeta_M^e_i (`_twist_exponents`), the
    sum is sum_a d_a^2 sum_j count[a, j] zeta_M^j over the distinct
    unit-row entries a, where count[a, j] is the number of labels with
    unit-row entry a and sign e_i = j mod M.  The histogram times the
    power rows of zeta_M (`_power_rows`, cached per M) gives one class
    sum per a; tau- negates the exponents, so no twist is inverted.
    The exponents are exact: every root of
    unity of Q(zeta_n) has an order dividing lcm(2, n), so
    `FactoredMatrix.root_exponents` misses only non-roots.  Twists that
    are not all roots of unity take `_slot_gauss_sum`.
    """

    def compute(md: ModularData) -> Cyclotomic:
        where, order, exponents = _twist_exponents(md)
        if where is not None:
            return _slot_gauss_sum(md, sign)
        if md.s_unit.is_zero():
            raise NonModular("S_{uu} = 0")
        columns = exponents if sign > 0 else -exponents % order
        return _class_total(md, columns, _power_rows(order, order), order, 1)

    return md._derived(f"tau{sign:+d}", compute)


def gauss_sums(md: ModularData) -> tuple[Cyclotomic, Cyclotomic, Cyclotomic]:
    """(tau_plus, tau_minus, D) with the identity tau+ tau- = D^2 enforced."""
    tau_plus, tau_minus = _gauss_sum(md, 1), _gauss_sum(md, -1)
    total = md.total_dim()
    if tau_plus * tau_minus != total * total:
        raise GaussIdentityFailure("tau+ tau- differs from D^2")
    return tau_plus, tau_minus, total


def central_charge(md: ModularData) -> Fraction:
    """c mod 8, from tau+/D = e^(2 pi i c/8); exact.

    u = tau+/D = tau+ S_uu is one `Cyclotomic` product, and
    `cyclotomic._root_phase` reads the root of unity off its numerators
    with rho^2 = 1, so neither D nor its sign is needed.  Its None
    proves that u is no root of unity; the error then prints u formed
    from the tau+ of `_slot_gauss_sum`.
    """
    u = _gauss_sum(md, 1) * md.s_unit  # tau+ / D
    phase = _root_phase(u.conductor, u.nums, u.den, 1)
    if phase is None:
        u = _slot_gauss_sum(md, 1) * md.s_unit
        raise NotRootOfUnity(f"tau+/D = {u} is not a root of unity")
    return Fraction(8 * phase[0], phase[1])


def central_charge_float_oracle(md: ModularData) -> float:
    """arg(tau+) * 8 / 2pi mod 8, pure floating point; diagnostic only."""
    import cmath
    import math

    total = 0j
    dims = md.dims()
    theta = md.theta()
    for d, th in zip(dims, theta):
        dv = d.approx()
        total += dv * dv * th.approx()
    return (cmath.phase(total) * 8 / (2 * math.pi)) % 8


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def reverse(md: ModularData) -> ModularData:
    """Mirror braiding: S and T entrywise conjugated (both keep their slots), same ring."""
    return ModularData(s=md.s.conj(), t=md.t.conj(), unit_index=md.unit_index, ring=md.ring)


def box_tensor(a: ModularData, b: ModularData) -> ModularData:
    """Deligne-product data: Kronecker S, and T the Kronecker of the
    T vectors, each one product per pair of distinct entries.

    Raises SizeLimit, before allocating anything, when the product's S
    or fusion table would exceed PRODUCT_SIZE_CAP entries."""
    rings = a.ring is not None and b.ring is not None
    rows = len(a.ring.table) * len(b.ring.table) if rings else 0
    entries = (a.rank * b.rank) ** 2
    if max(rows, entries) > PRODUCT_SIZE_CAP:
        raise SizeLimit(
            f"the product needs {entries} S entries and {rows} fusion rows, "
            f"above the cap of {PRODUCT_SIZE_CAP}"
        )
    ring = ring_product(a.ring, b.ring) if rings else None
    return ModularData(
        s=a.s.kron(b.s), t=a.t.kron(b.t), unit_index=a.unit_index * b.rank + b.unit_index, ring=ring
    )


def double(md: ModularData) -> ModularData:
    """md box-tensor its reverse; always passes the central-charge gate."""
    return box_tensor(md, reverse(md))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _balancing_sides(md: ModularData, theta: tuple, factor: Cyclotomic) -> tuple:
    """((S T)^3, factor * S^2), packed, with T the diagonal of twists."""
    st = md.s.packed().times(FactoredMatrix.of((theta,)).packed())
    return st @ st @ st, md.packed_s_squared().times(FactoredMatrix.of(((factor,),)).packed())


def _ring_equations(md: ModularData, order: int, exponents: np.ndarray) -> tuple[bool, bool]:
    """(verlinde, balancing): whether the declared ring N passes
    `verlinde_integral` and `verlinde_matches_ring`, and the data pass
    `balancing` and `gauss_identity`, read off the ring table without a
    product of r x r matrices, without an inverse and without a Gauss
    sum.  False means only "not shown here": the caller then runs the
    full routes.

    The caller has already passed s_symmetric, dims_real_positive,
    total_dim, s_squared_dual_permutation (S^2 = C, an involution fixing
    the unit u), dual_matches_ring (C = ring.dual), theta_root_of_unity
    and theta_dual_invariant.  So S = S^T, d_i = S_ui / S_uu > 0, S_uu
    is real, theta_i* = theta_i, and theta_i = zeta_order^exponents[i].
    This function checks three things.

    (U) conj(S) = C S, i.e. conj(S_ij) = S_i*j: one read of the slots.
    (V) S_um sum_k N_ij^k S_km = S_im S_jm for all i, j, m.
    (B) theta_i theta_j S_ij = sum_k N_i*j^k theta_k S_uk for all i, j,
        i.e. = S_uu sum_k N_i*j^k theta_k d_k: the T form T_i T_j S_ij =
        T_u sum_k N_i*j^k T_k S_uk over T_u^2 != 0, so equivalent to it.

    Unitarity.  S commutes with S^2 = C, so S conj(S) = S C S = C S S =
    C^2 = 1 by (U): S^-1 = conj(S).

    (V) gives Verlinde.  d_m > 0, so S_um != 0.  Multiply (V) by
    conj(S_lm) / S_um and sum over m; S conj(S) = 1 leaves N_ij^l =
    sum_m S_im S_jm conj(S_lm) / S_um, which is the coefficient that
    `verlinde_table` computes.  The declared N are non-negative integers
    (ring construction checks that), so `verlinde_table` returns exactly
    the ring's table: verlinde_integral passes and first_difference
    finds nothing.

    (B) with (V) gives balancing.  Write p = tau+ / D = S_uu sum_k d_k^2
    theta_k and T = diag(theta).
    - sum_a d_a N_a*b^k = d_b d_k.  By the Verlinde formula and
      S_a*m = conj(S_am) (from (U)), the left side is sum_m
      (sum_a d_a conj(S_am)) S_bm conj(S_km) / S_um, and sum_a S_ua
      conj(S_am) = delta_um, so it is S_bu conj(S_ku) / S_uu^2 =
      d_b d_k (the d are real).
    - The Gauss identity sum_a theta_a d_a S_ab = p theta_b^-1 d_b:
      multiply (B) at (a, b) by d_a and sum over a; the step above
      turns the right side into S_uu sum_k theta_k d_k^2 d_b = p d_b.
    - S T S = p T^-1 S T^-1: (B) at (j, b) gives theta_j S_jb =
      theta_b^-1 S_uu sum_k N_j*b^k theta_k d_k.  By Verlinde and
      S conj(S) = 1, sum_j S_aj N_j*b^k = S_ba conj(S_ka) / S_ua, and
      conj(S_ka) = S_a*k = S_ka*.  So (S T S)_ab = theta_b^-1 S_uu
      S_ab / S_ua sum_k theta_k d_k S_ka*, and the Gauss identity at
      a*, with theta_a* = theta_a and d_a* = d_a, makes it p
      theta_a^-1 theta_b^-1 S_ab.
    - Hence (S T)^3 = (S T S) T S T = p T^-1 S^2 T = p T^-1 C T = p C =
      p S^2, since C commutes with T (theta is dual invariant).  Both
      sides are equal in value, so `balancing` passes.

    Balancing gives the Gauss identity tau+ tau- = D^2 (Bakalov-Kirillov,
    Lectures on Tensor Categories and Modular Functors, Thm 3.1.17).
    Take determinants of (S T)^3 = p C: S is unitary, every theta_i is a
    root of unity and C is a permutation, so |det(S T)|^3 = 1 and |det C|
    = 1, and |det(S T)|^3 = |p|^r |det C| gives |p| = |tau+ / D| = 1.
    The d are real and |theta_i| = 1, so tau- = sum_i d_i^2 theta_i^-1 =
    conj(tau+), and tau+ tau- = |tau+|^2 = D^2.  So `gauss_identity`
    passes, and no twist theta_i = T_i / T_u and no Gauss sum is formed.

    (V) and (B) are checked in one pass, a block of labels i at a time,
    each block about `fusion._BLOCK_BYTES` of coefficients, 8 bytes each,
    or one label.  Each table row (i, j, k) gathers its terms from one
    per-label table: N times S_um S_km for every m, and next to them
    N theta_k S_uk.  One `np.add.reduceat` sums the rows of each (i, j),
    one scatter places the sums, and each half is compared with its
    right side: S_im S_jm, and theta_i* theta_j S_i*j.  A (V) mismatch
    ends the pass; after a (B) mismatch the pass checks (V) alone.  (V) reads one table of the
    products of every two distinct S entries (the route is not taken
    when that table would exceed `_PRODUCT_TABLE_CAP` coefficients), so
    no product is formed per entry, and both sides share its
    denominator, so equal values have equal numerators.  In (B) every
    term is zeta_L^b times an S entry, L = lcm(order, n): each code s L
    + b that occurs is marked in a table of e L places, with no sort,
    and gets one row of a rotation table, entry s times zeta_L^b, an
    index shift to the basis zeta_L^t, t < L, times the rows zeta_L^t
    mod Phi_L (past `_PRODUCT_TABLE_CAP`, (B) is left to (S T)^3).
    Sums run in int64 under a bound and on Python integers past it.
    """
    ring = md.ring
    r, u = md.rank, md.unit_index
    slots = md.s.slots.astype(np.intp)
    table = md.s.table()
    n, entries = table.conductor, table.nums[:, 0]
    e, phi = entries.shape
    dual = np.array(ring.dual, dtype=np.intp)

    # (U): value ids of the entries and of their conjugates
    value = _value_ids(np.concatenate((entries, _linear(entries, _power_table(n, n, -1)))))
    if not (value[e:][slots] == value[:e][slots[dual]]).all():
        return False, False

    # (V): the products of every two distinct S entries
    if e * e * (2 * phi - 1) > _PRODUCT_TABLE_CAP:
        return False, False
    products = _linear(_conv_entrywise(entries[:, None], entries[None]), _reduction_table(n))
    unit_row = slots[u]
    # per label k, the table rows' terms: S_um S_km for every m ...
    terms = [products[unit_row, slots].reshape(r, r * phi)]

    # (B): S entry s times zeta_c^b has code s c + b, for c = lcm(order,
    # n), the L above: theta_a* theta_j S_a*j at (a, j) on the left, and
    # per label k, theta_k S_uk
    c = math.lcm(order, n)
    t = exponents * (c // order)
    lhs, rhs = (slots * c + (t[:, None] + t) % c)[dual], unit_row * c + t
    # every slot occurs on the left, so the codes that occur number at least e
    balancing = e * c <= _PRODUCT_TABLE_CAP
    if balancing:
        row = np.zeros(e * c, dtype=np.intp)
        row[lhs] = 1
        row[rhs] = 1
        used = np.flatnonzero(row)
        balancing = len(used) * c <= _PRODUCT_TABLE_CAP
    if balancing:
        # one rotation table row per code that occurs, in code order
        row = row.cumsum() - 1
        slot, shift = np.divmod(used, c)
        places = (np.arange(phi) * (c // n) + shift[:, None]) % c
        spread = np.zeros((len(used), c), dtype=entries.dtype)
        spread[np.arange(len(used))[:, None], places] = entries[slot]
        rotated = _linear(spread, _power_rows(c, c))
        rotation = _gather_rows(rotated)
        lhs = row[lhs]
        terms.append(rotated[row[rhs]])
    terms = np.concatenate(terms, axis=1)

    first, pair_j, k = ring.indices().T
    counts = ring.table[:, 3]
    pairs = first * r + pair_j
    heads = np.flatnonzero(np.concatenate(([True], pairs[1:] != pairs[:-1])))
    by_first = first.searchsorted(np.arange(r + 1))
    # the largest sum of N over one (i, j) bounds every sum of terms
    top = int(np.add.reduceat(counts, heads).max()) if len(counts) else 0
    term = _gather_rows(_widen(terms, top * _max_abs(terms)))
    product = _gather_rows(products)
    width = r * phi
    # per label below i: its table rows plus r, times a width per row
    made = by_first + np.arange(r + 1) * r
    for start, stop in _label_blocks(made * terms.shape[1], 8):
        lo, hi = by_first[start], by_first[stop]
        left = term(k[lo:hi]) * counts[lo:hi, None]
        block = heads[heads.searchsorted(lo) : heads.searchsorted(hi)]
        if len(block) < hi - lo:  # some (i, j) has several rows
            left = np.add.reduceat(left, block - lo)
        if len(block) < (stop - start) * r:  # some (i, j) has no row
            out = np.zeros(((stop - start) * r, left.shape[1]), dtype=left.dtype)
            out[pairs[block] - start * r] = left
            left = out
        right = product(slots[start:stop, None], slots[None])
        if not (left[:, :width] == right.reshape(-1, width)).all():
            return False, False
        if balancing:
            right = rotation(lhs[start:stop])
            balancing = bool((left[:, width:] == right.reshape(len(left), -1)).all())
    return True, balancing


def _gather_rows(a: np.ndarray):
    """index -> a[index] for an array (..., p) indexed on its leading
    axes.  An int64 array is gathered as one p-coefficient record per
    row, several times faster than as p separate items."""
    if a.dtype != np.int64:
        return lambda *index: a[index]
    p = a.shape[-1]
    records = np.ascontiguousarray(a).view(np.dtype((np.void, 8 * p)))[..., 0]

    def gather(*index):
        out = records[index]
        return out.view(np.int64).reshape(out.shape + (p,))

    return gather


def _generators(law: np.ndarray, u: int) -> list | None:
    """Labels g_1, g_2, ... that reach every label from u by right
    products (`law[x, g]`), each the least label the ones before do not
    reach; None once more than log2(r) are needed.  In a group the
    labels reached by g_1 .. g_i form the subgroup they generate, which
    at least doubles with each g_i.  Plain Python lists: O(r) per
    generator, where numpy's cost per call would dominate."""
    r = len(law)
    reached = bytearray(r)
    reached[u] = 1
    subgroup = [u]
    gens: list = []
    while (g := reached.find(0)) >= 0:
        if len(gens) == r.bit_length() - 1:
            return None
        gens.append(g)
        column = law[:, g].tolist()
        # the cosets subgroup + j g until one starts at a reached label,
        # which in a group is the subgroup itself
        cosets = list(subgroup)
        coset = [column[x] for x in subgroup]
        while not reached[coset[0]]:
            for x in coset:
                reached[x] = 1
            cosets += coset
            coset = [column[x] for x in coset]
        subgroup = cosets
    return gens


def _ring_law(ring: FusionRing, labels: np.ndarray) -> np.ndarray:
    """L[a, c] for a, c in labels, off the sorted row codes (a r + c) r +
    L[a, c] of a ring with exactly one row per pair (a, c), row a r + c."""
    r = ring.rank
    pairs = labels[:, None] * r + labels
    return ring._codes[pairs] - pairs * r


def _pointed_certificate(md: ModularData) -> bool:
    """Whether md is the pointed data of a nondegenerate metric group
    (A, q) with its group ring as the declared ring, by integer numpy
    checks of O(|G| r^2) on a generating set G of at most log2(r)
    labels.  `validate_modular` and `pointed.lagrangian_candidates` read
    it, once per datum (`ModularData.pointed_certificate`).

    The conditions, for u the unit, r the rank, L the ring's law,
    theta_a = zeta_M^e_a (`_twist_exponents`, so e_u = 0),
    K[a, c] = e[L[a, c]] - e_a - e_c mod M, and G from `_generators`:
    (0) the ring has r^2 rows and T_u != 0; nothing else is read
        otherwise;
    (1) S_uu^2 r = 1 and S_uu > 0, so D = 1/S_uu = sqrt(r);
    (2) the ring has one row (a, c, L[a, c], 1) per pair (a, c); L is
        symmetric, L[u] is the identity, and L[a, dual[a]] = u;
    (3) Light's test: (x g) y = x (g y) for all labels x, y and g in G;
    (4) every twist is a root of unity, and M <= 2 r;
    (5) D S_ac = zeta_M^(-K[a, c]): the value ids of S are a function
        of K, and each K value but 0 (whose value is S_uu's) is compared
        once, exactly.  K[u, a] = 0, so the unit row of S is S_uu's;
    (6) K[g, x + h] = K[g, x] + K[g, h] for every x and g, h in G;
    (7) K[g, g] = 2 e_g for g in G;
    (8) no a != u has K[a, g] = 0 for every g in G.
    S's value ids are read before any twist, as in `_axiom_checks`, so
    a conductor refusal names the matrix that the checks would.

    They make md the pointed data of (A, q), q(a) = e_a/M
    (`pointed.metric_modular_data`), up to T_u and the labels.  The
    labels p with (x p) y = x (p y) for all x, y are closed under L:
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y).
    They include u and G, so every label: L is associative, and with
    (2) a commutative monoid with identity u.  K is symmetric with
    K[a, u] = 0, and K[a, c + x] - K[a, c] - K[a, x] = e_(a+c+x) -
    e_(a+c) - e_(a+x) - e_(c+x) + e_a + e_c + e_x is symmetric in a, c,
    x.  By (6) each K[g, .] is additive along every generator, so
    additive, every label being a sum of generators; by that symmetry
    each K[a, .] is then additive along G, so additive.  An idempotent
    z = z + z has K[a, z] = 2 K[a, z] = 0 for all a, so z = u by (8); as
    some multiple of each a is idempotent, every a has an inverse.  So
    A is an abelian group and b = e^(2 pi i K/M) a symmetric
    bicharacter, nondegenerate by (8), and dual[a] = -a by (2).
    K[g, -g] = -K[g, g] gives e_(-g) = K[g, g] - e_g, so (7) is q(-g) =
    q(g); a -> q(a) - q(-a) is additive (K[-a, -c] = K[a, c]), so it
    vanishes, and q is a quadratic form with bicharacter b.  By (1) and
    (5) every d_a = 1 and S_ac = b(a, c)^(-1) / sqrt|A|, and T_a / T_u =
    e^(2 pi i q(a)).  (4) holds on every such datum: q has values in
    (1 / 2 exp(A)) Z / Z, and exp(A) <= r.  In (5), S_ac and S_uu lie in
    Q(zeta_n), n = lcm(2, conductor of S's table), so D S_ac = zeta_M^-k
    is a root of unity of Q(zeta_n), of order dividing n; a value k of
    K whose root has another order fails at once, and every product
    formed stays in Q(zeta_n).
    """
    r, u, ring = md.rank, md.unit_index, md.ring
    # a ring has r^2 rows or more, and exactly r^2 when every product is
    # one simple; labels below r <= 2^16 fit uint16 (a ring of more rows
    # is past any memory)
    if ring is None or len(ring.table) != r * r or r > 2**16 or md.t[u].is_zero():
        return False
    s, s_uu = md.s, md.s_unit
    ids = s.value_ids()
    if s_uu * s_uu * r != 1 or s_uu.real_sign() <= 0:
        return False

    # N >= 1 on every row, so r^2 rows summing to r^2 all have N = 1;
    # the sorted codes (a r + c) r + L[a, c] then have one row per pair
    # exactly when each lies in [p r, p r + r) for p = a r + c
    if ring.table[:, 3].sum() != r * r:
        return False
    labels = np.arange(r)
    law = _ring_law(ring, labels)
    if law.min() < 0 or law.max() >= r:
        return False
    if (law != law.T).any() or (law[u] != labels).any():
        return False
    if (law[labels, list(ring.dual)] != u).any():
        return False
    gens = _generators(law, u)
    if gens is None:
        return False
    # L commutative: (g y) x = x (g y) must equal (x g) y = (g x) y
    narrow = law.astype(np.uint16)
    step = _block_step(r * r, 2)  # uint16 labels
    for start in range(0, len(gens), step):
        products = np.take(narrow, law[gens[start : start + step]], axis=0)
        if (products != products.transpose(0, 2, 1)).any():
            return False

    # a quadratic form on A has values in (1 / 2 exp(A)) Z / Z, and
    # exp(A) <= r
    where, m, e = _twist_exponents(md)
    if where is not None or m > 2 * r:
        return False
    # K = raw mod m, raw in (-2m, m): a negative index into the 3m
    # residues wraps to raw + 3m, of the same residue
    residues = np.arange(3 * m) % m
    k = np.take(residues, np.take(e, law) - np.add.outer(e, e))
    # the value id of S at each value of K; at 0 it is S_uu's, as
    # K[u, u] = 0
    values = ids[s.slots]
    value = np.full(m, -1, dtype=np.intp)
    value[k] = values
    if (value[k] != values).any():
        return False
    # each other value against e^(-2 pi i K/M) S_uu, in Q(zeta_n)
    n = _lcm(2, s.table().conductor)
    entry = dict(zip(ids.tolist(), s.entries))
    for angle in (np.flatnonzero(value[1:] >= 0) + 1).tolist():
        if angle * n % m or entry[value[angle]] != from_angle(Fraction(-angle, m)) * s_uu:
            return False

    rows = k[gens]  # K[g, .]
    pairs = rows[:, gens]  # K[g, h]
    # K[g, x + h] - K[g, x] - K[g, h], in (-2m, m), is 0 mod m
    excess = np.take(rows, law[:, gens], axis=1) - rows[:, :, None] - pairs[:, None, :]
    if np.take(residues, excess).any():
        return False
    if np.count_nonzero((rows == 0).all(axis=0)) != 1:
        return False
    # q(-g) = q(g) iff q(2g) = 4 q(g), that is K[g, g] = 2 e_g mod m
    return not any(
        (kg - 2 * eg) % m for kg, eg in zip(pairs.diagonal().tolist(), e[gens].tolist())
    )


# the checks of `validate_modular`, in report order
_MODULAR_CHECKS = (
    "s_symmetric",
    "dims_real_positive",
    "total_dim",
    "s_squared_dual_permutation",
    "dual_matches_ring",
    "theta_normalized",
    "theta_root_of_unity",
    "theta_dual_invariant",
    "balancing",
    "gauss_identity",
    "verlinde_integral",
    "verlinde_matches_ring",
)


def validate_modular(md: ModularData) -> ValidationReport:
    """Exact check of every modular axiom; names are stable API, and a
    report lists them in the order of `_MODULAR_CHECKS`.

    Pointed data with a group ring are answered by the pointed
    certificate (`ModularData.pointed_certificate`).  When it holds,
    every check passes, and no S^2, Verlinde sum, (S T)^3, Gauss sum or
    twist theta_i is formed.  By the certificate, labels are the elements
    of a finite abelian group A, u = 0, r = |A|, D = 1/S_uu = sqrt(r) >
    0, S_ac = b(a, c)^(-1) / D for a nondegenerate symmetric bicharacter
    b, theta_a = e^(2 pi i q(a)) for a quadratic form q with theta(x +
    y) = theta_x theta_y b(x, y), every theta_a a root of unity, and the
    declared ring is the group law with dual[a] = -a.  Each check, in turn:
    - s_symmetric: b is symmetric.
    - dims_real_positive: d_a = S_ua / S_uu = b(0, a)^(-1) = 1.
    - total_dim: D = sqrt(r) > 0, and D^2 = r = sum_a d_a^2.
    - s_squared_dual_permutation: (S^2)_ac = (1/r) sum_x b(a + c, x)^(-1)
      is 1 when a + c = 0 and 0 otherwise, by character orthogonality
      (b(a + c, .) is a nontrivial character when a + c != 0, b being
      nondegenerate).  So S^2 is negation, an involution fixing u.
    - dual_matches_ring: the declared dual is negation.
    - theta_normalized: T_u != 0.
    - theta_root_of_unity: condition (4) of the certificate.
    - theta_dual_invariant: q(-a) = q(a), q being a quadratic form.
    - balancing: write g = sum_x theta_x, which is tau+ as every d = 1.
      theta(x - y) = theta_x theta_y b(x, y)^(-1) gives sum_x theta_x
      b(x, y)^(-1) = theta_y^(-1) g.  So (S T S)_ac = g theta_(a+c)^(-1)
      / r = p theta_a^(-1) S_ac theta_c^(-1) for p = g/D = tau+/D, and
      (S T)^3 = (S T S) T S T = p T^-1 S^2 T = p S^2, since S^2 is
      negation and theta_(-a) = theta_a.
    - gauss_identity: tau- = sum_x theta_x^(-1) = conj(g), and by
      Gauss-Milgram |g|^2 = sum_(x, z) theta(x + z) theta_x^(-1) =
      sum_z theta_z sum_x b(x, z) = r, the inner sum being r at z = 0
      and 0 elsewhere.  So tau+ tau- = r = D^2.
    - verlinde_integral and verlinde_matches_ring: sum_x S_ax S_bx
      conj(S_cx) / S_ux = (1/r) sum_x b(c - a - b, x) is 1 when c = a +
      b and 0 otherwise: the group law, integral, and the declared ring.
    On every other datum the checks run one by one (`_axiom_checks`).
    """
    if not md.pointed_certificate():
        return _axiom_checks(md)
    report = ValidationReport("modular data")
    for name in _MODULAR_CHECKS:
        report.add(name, True, None)
    return report


def _axiom_checks(md: ModularData) -> ValidationReport:
    """The checks of `validate_modular`, one by one.

    Positivity of d_i and D is decided by certified signs
    (`Cyclotomic.real_sign`), so no float threshold decides a check.
    `theta_normalized` passes whenever T_u != 0, since theta_u = T_u /
    T_u = 1, so no twist is formed for it.  On data that declare a ring
    and pass every check up to theta_dual_invariant, the ring route
    (`_ring_equations`) decides `verlinde_integral` and
    `verlinde_matches_ring`, and when its twist equation holds too,
    `balancing` and `gauss_identity`, with no twist theta_i and no Gauss
    sum formed.  Everything it does not show takes the full routes.
    """
    report = ValidationReport("modular data")
    u = md.unit_index

    ids = md.s.value_ids()[md.s.slots]
    # argwhere is row-major, so this is the first asymmetric (i, j), i < j
    mismatch = np.argwhere(np.triu(ids != ids.T, 1))
    ok = not len(mismatch)
    report.add("s_symmetric", ok, None if ok else tuple(int(x) for x in mismatch[0]))

    dims = None
    if md.s_unit.is_zero():
        report.add("dims_real_positive", False, (u, u), "S_{uu} = 0")
    else:
        dims = md.dims()
        # the distinct unit-row values, each at its first label with its
        # count, so a failure names the first label that carries it
        _, first, counts = np.unique(ids[u], return_index=True, return_counts=True)
        order = first.argsort()
        classes = list(zip(first[order].tolist(), counts[order].tolist()))
        ok, where, detail = True, None, ""
        for i, _ in classes:
            d = dims[i]
            if d.conj() != d:
                ok, where, detail = False, (i,), "not fixed by conjugation"
                break
            if d.real_sign() <= 0:
                ok, where, detail = False, (i,), f"approx {d.approx().real:.3g} not positive"
                break
        report.add("dims_real_positive", ok, where, detail)

    if dims is not None:
        total = md.total_dim()
        square_sum = ZERO
        for i, count in classes:
            square_sum = square_sum + dims[i] * dims[i] * count
        ok = total * total == square_sum
        detail = "" if ok else "1/S_uu squared differs from sum of d_i^2"
        # a certified sign needs a real D
        if ok and (total.conj() != total or total.real_sign() <= 0):
            ok, detail = False, "D not positive"
        report.add("total_dim", ok, None, detail)
    else:
        report.add("total_dim", False, None, "dims unavailable")

    perm = md.dual_permutation()
    problem = _dual_problem(perm, u)
    if problem is None:
        report.add("s_squared_dual_permutation", True, None)
    else:
        report.add("s_squared_dual_permutation", False, None if perm is None else (u,), problem)
        perm = None

    if md.ring is not None:
        ok = perm is not None and perm == md.ring.dual
        report.add(
            "dual_matches_ring",
            ok,
            None,
            "" if ok else "S^2 permutation differs from the declared dual",
        )

    ring_verlinde = ring_balancing = False
    if md.t[u].is_zero():
        report.add("theta_normalized", False, (u,), "T_u = 0")
        report.add("theta_root_of_unity", False, None, "twists unavailable")
        report.add("theta_dual_invariant", False, None, "twists unavailable")
        report.add("balancing", False, None, "twists unavailable")
        report.add("gauss_identity", False, None, "twists unavailable")
    else:
        # theta_u = T_u / T_u = 1 exactly
        report.add("theta_normalized", True, None)
        where, order, exponents = _twist_exponents(md)
        report.add("theta_root_of_unity", where is None, where)

        if perm is not None:
            # theta_i = T_i / T_u with T_u != 0: equal twists, equal T
            t_ids = md.t.value_ids()[md.t.slots]
            moved = np.flatnonzero(t_ids[list(perm)] != t_ids)
            ok = not len(moved)
            report.add("theta_dual_invariant", ok, None if ok else (int(moved[0]),))
        else:
            report.add("theta_dual_invariant", False, None, "dual permutation unavailable")

        # every check so far passed: try the ring route (see _ring_equations)
        if md.ring is not None and report.ok:
            ring_verlinde, ring_balancing = _ring_equations(md, order, exponents)

        if ring_balancing:
            # the route proves (S T)^3 = (tau+/D) S^2 and tau+ tau- = D^2
            report.add("balancing", True, None)
            report.add("gauss_identity", True, None)
        elif dims is not None:
            # (S T)^3 = (tau+/D) S^2 with T the normalized twist diagonal
            theta = md.theta()
            tau_plus = _gauss_sum(md, 1)
            lhs, rhs = _balancing_sides(md, theta, tau_plus * md.s_unit)
            mismatch = np.argwhere(~lhs.entries_equal(rhs))
            ok = not len(mismatch)
            report.add("balancing", ok, None if ok else tuple(int(x) for x in mismatch[0]))

            total = md.total_dim()
            zero = next((i for i, x in enumerate(theta) if x.is_zero()), None)
            if zero is None:
                ok = tau_plus * _gauss_sum(md, -1) == total * total
                report.add("gauss_identity", ok, None)
            else:  # tau- inverts every twist
                report.add("gauss_identity", False, (zero,), f"theta_{zero} = 0, tau- undefined")

    if ring_verlinde:
        report.add("verlinde_integral", True, None)
        report.add("verlinde_matches_ring", True, None)
        return report
    try:
        table = verlinde_table(md)
    except (NonIntegralVerlinde, NonModular) as exc:
        report.add("verlinde_integral", False, None, str(exc))
        table = None
    else:
        report.add("verlinde_integral", True, None)
    if md.ring is not None:
        if table is None:
            report.add("verlinde_matches_ring", False, None, "verlinde unavailable")
        else:
            where = first_difference(md.ring, table)
            report.add("verlinde_matches_ring", where is None, where)
    return report
