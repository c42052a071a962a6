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
is exact: it runs in float64 (BLAS) only when a worst-case bound on
its partial sums, computed from the entry sizes, is below 2^53, and on
Python integers in an object array otherwise; results are stored as
int64 when they fit.  S^2 (the dual permutation), the balancing
identity (ST)^3 = (tau+/D) S^2 and the Verlinde sum all use it, and
since the power basis is a basis, "is a permutation matrix" and "is a
non-negative integer" are read off the packed coefficients directly.
The Verlinde sum is symmetric in i and j, so `verlinde_table` computes
the pairs i <= j only, as one packed product per block of pairs of at
most `_BLOCK_ENTRIES` coefficients, and mirrors the rest.

Derived invariants (packed S and S^2, dims, twists, D, the dual
permutation, the Gauss sums, and through `ModularData._derived` the
central charge and the Verlinde ring) are computed at most once per
`ModularData`, in a private cache that equality and repr ignore.

Scalar work runs once per distinct value, not once per label or entry.
Modular data repeats few values: a pointed S has one per pairing
exponent, all of its dims are 1, and its twists take at most M values.
Two values are the same when their normalised (conductor, nums, den)
agree.  `_distinct_map` applies a `Cyclotomic` function once per
distinct value of a tuple (dims, twists, the inverses of the unit row,
the JSON form of S and T), and `_distinct` lists the distinct values of
one or more tuples with the first label and the multiplicity of each.
So there is one Gauss sum, tau+- = sum over the distinct (d, theta) of
multiplicity * d^2 theta^(+-1), cached per datum by `_gauss_sum`;
`central_charge`, `gauss_sums` and the balancing and Gauss-identity
checks of `validate_modular` all read it.  The positivity of the dims
and the root-of-unity test of the twists run on distinct values too,
and a failure is reported at the first label that carries the value.
`PackedMatrix.pack` embeds each distinct entry once, and
`ModularData.from_json_dict` parses each distinct scalar object once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    ONE,
    ZERO,
    _embed_nums,
    _lcm,
    _power_row,
    _reduction,
    euler_phi,
    from_angle,
)
from .errors import (
    GaussIdentityFailure,
    InputError,
    NonIntegralVerlinde,
    NonModular,
    NotRootOfUnity,
)
from .fusion import FusionRing, _assemble, first_difference, ring_product
from .report import ValidationReport

Matrix = tuple  # tuple of tuple of Cyclotomic

# Integers of absolute value below 2^53 are exact in float64, and so is
# every sum of them that stays below it; int64 holds |x| < 2^63.
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**63

# Bound on the coefficients of one Verlinde block, (pairs, r, 2 phi - 1):
# a rank-12 datum runs as one block, and a block of rank-1,296 pointed
# data holds about 2 MB of them.
_BLOCK_ENTRIES = 2**18


# ---------------------------------------------------------------------------
# distinct values
# ---------------------------------------------------------------------------


def _distinct_map(f, values) -> tuple:
    """tuple(map(f, values)) with f evaluated once per distinct value;
    equal values share one image."""
    images: dict = {}
    out = []
    for v in values:
        key = (v.conductor, v.nums, v.den)
        if key not in images:
            images[key] = f(v)
        out.append(images[key])
    return tuple(out)


def _distinct(*columns) -> list:
    """[(first, row, count)] over the distinct rows of zip(*columns), in
    order of first appearance: the first label carrying the row, the
    row of values and its multiplicity."""
    rows: dict = {}
    for i, row in enumerate(zip(*columns)):
        key = tuple((v.conductor, v.nums, v.den) for v in row)
        if key in rows:
            rows[key][2] += 1
        else:
            rows[key] = [i, row, 1]
    return list(rows.values())


# ---------------------------------------------------------------------------
# packed matrices over Q(zeta_N)
# ---------------------------------------------------------------------------


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


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


def _int_table(rows) -> tuple[np.ndarray, int]:
    """(matrix, norm): an integer matrix and its largest column sum of
    absolute values, which bounds |x @ matrix| by norm * max|x|."""
    matrix = _settle(np.array(rows, dtype=object))
    return matrix, int(np.abs(matrix).sum(axis=0).max())


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[np.ndarray, int]:
    """Maps coefficients of 1, x, ..., x^(2 phi - 2) to x^k mod Phi_n."""
    phi, rows = _reduction(n)
    identity = [[int(i == j) for j in range(phi)] for i in range(phi)]
    return _int_table(identity + [list(r) for r in rows[: phi - 1]])


@lru_cache(maxsize=None)
def _conj_table(n: int) -> tuple[np.ndarray, int]:
    """Complex conjugation zeta -> zeta^(-1) on the power basis."""
    return _int_table([_power_row(n, (n - k) % n) for k in range(euler_phi(n))])


@lru_cache(maxsize=None)
def _embed_table(n_from: int, n_to: int) -> tuple[np.ndarray, int]:
    step = n_to // n_from
    return _int_table(
        [_power_row(n_to, (k * step) % n_to) for k in range(euler_phi(n_from))]
    )


def _linear(a: np.ndarray, table: tuple[np.ndarray, int]) -> np.ndarray:
    """a (..., p) times an integer table (p, q), exactly."""
    matrix, norm = table
    dtype = _exact_dtype(_max_abs(a) * norm)
    return _settle(a.astype(dtype) @ matrix.astype(dtype))


def _conv_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of polynomial matrices a (r, m, p) and b (m, c, q):
    coefficient arrays (r, c, p + q - 1), one integer matmul per power of a."""
    r, m, p = a.shape
    c, q = b.shape[1:]
    dtype = _exact_dtype(m * min(p, q) * _max_abs(a) * _max_abs(b))
    a = a.astype(dtype)
    flat = b.astype(dtype).reshape(m, c * q)
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


def _int_compatible(a: np.ndarray, k: int) -> np.ndarray:
    """a in a dtype that compares and divides exactly with the integer k."""
    return a if abs(k) < _INT64_LIMIT else a.astype(object)


def _scaled(a: np.ndarray, k: int) -> np.ndarray:
    """a times the integer k, exactly."""
    if _max_abs(a) * abs(k) < _INT64_LIMIT:
        return a.astype(np.int64) * k
    return a.astype(object) * k


class PackedMatrix:
    """A matrix over Q(zeta_N), entry (i, j) = sum_k nums[i, j, k] zeta_N^k / den.

    nums is an int64 array when every coefficient fits, and an object
    array of Python integers otherwise; every operation is exact.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums: np.ndarray, den: int):
        self.conductor = conductor
        self.nums = nums
        self.den = den

    @staticmethod
    def pack(rows, conductor: int | None = None) -> "PackedMatrix":
        """Pack rows of Cyclotomic scalars over Q(zeta_conductor); the
        default conductor is the lcm of the entries' conductors.

        Each distinct (conductor, nums, den) entry is embedded and scaled
        to the common denominator once, into one row of a table; the
        matrix is that table gathered by a numpy index array.  Matrices
        over a cyclotomic field repeat few values (a pointed S has at
        most one per pairing exponent), so the Python work grows with
        the distinct values and only the gather with the entry count.
        """
        slots: dict = {}
        index = [
            [slots.setdefault((e.conductor, e.nums, e.den), len(slots)) for e in row]
            for row in rows
        ]
        if conductor is None:
            conductor = 1
            for n, _, _ in slots:
                conductor = _lcm(conductor, n)
        den = 1
        for _, _, d in slots:
            den = _lcm(den, d)
        table = [
            [v * (den // d) for v in _embed_nums(nums, n, conductor)]
            for n, nums, d in slots
        ]
        table = _settle(np.array(table, dtype=object))
        return PackedMatrix(conductor, table[np.array(index, dtype=np.intp)], den)

    def entry(self, i: int, j: int) -> Cyclotomic:
        return Cyclotomic(self.conductor, tuple(int(v) for v in self.nums[i, j]), self.den)

    def embed(self, conductor: int) -> "PackedMatrix":
        """The same matrix over Q(zeta_conductor); needs self.conductor | conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise InputError(f"cannot embed conductor {self.conductor} into {conductor}")
        nums = _linear(self.nums, _embed_table(self.conductor, conductor))
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
        return PackedMatrix(
            self.conductor, _linear(self.nums, _conj_table(self.conductor)), self.den
        )

    def transpose(self) -> "PackedMatrix":
        return PackedMatrix(self.conductor, self.nums.transpose(1, 0, 2), self.den)

    def entries_equal(self, other: "PackedMatrix") -> np.ndarray:
        """Boolean array: entry (i, j) of self equals that of other."""
        _, a, b = self._unified(other)
        return (_scaled(a, other.den) == _scaled(b, self.den)).all(axis=-1)


@dataclass(frozen=True)
class ModularData:
    s: Matrix
    t: tuple
    unit_index: int = 0
    ring: FusionRing | None = None

    def __post_init__(self):
        r = len(self.s)
        if r == 0:
            raise InputError("empty S matrix")
        s = tuple(tuple(row) for row in self.s)
        if any(len(row) != r for row in s):
            raise InputError("S must be square")
        if not _all_cyclotomic(chain.from_iterable(s)):
            raise InputError("S entries must be cyclotomic scalars")
        t = tuple(self.t)
        if len(t) != r or not _all_cyclotomic(t):
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
        return self.s[self.unit_index][self.unit_index]

    def packed_s(self) -> PackedMatrix:
        """S packed over the conductor of its own entries."""
        return self._derived("packed_s", lambda md: PackedMatrix.pack(md.s))

    def packed_s_squared(self) -> PackedMatrix:
        return self._derived("packed_s2", lambda md: md.packed_s() @ md.packed_s())

    def total_dim(self) -> Cyclotomic:
        """D = 1/S_{uu}, exact."""
        if self.s_unit.is_zero():
            raise NonModular("S_{uu} = 0")
        return self._derived("total_dim", lambda md: md.s_unit.inverse())

    def dims(self) -> tuple:
        """Quantum dimensions d_i = S_{ui}/S_{uu}."""
        inv = self.total_dim()
        return self._derived(
            "dims", lambda md: _distinct_map(lambda x: x * inv, md.s[md.unit_index])
        )

    def theta(self) -> tuple:
        """Twists theta_i = T_i/T_u."""
        tu = self.t[self.unit_index]
        if tu.is_zero():
            raise NonModular("T_u = 0, twists undefined")
        return self._derived("theta", lambda md: _divided(md.t, tu))

    def dual_permutation(self) -> tuple | None:
        """The permutation C with S^2 = C, or None if S^2 is no permutation."""
        return self._derived("dual", _dual_permutation)

    def conductor(self) -> int:
        return self._derived("conductor", _conductor)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The JSON form; entries equal in value share one scalar object."""
        r = self.rank
        scalars = _distinct_map(Cyclotomic.to_json_dict, chain(*self.s, self.t))
        return {
            "ring": self.ring.to_json_dict() if self.ring is not None else None,
            "unit": self.unit_index,
            "conductor": self.conductor(),
            "S": [list(scalars[i : i + r]) for i in range(0, r * r, r)],
            "T": list(scalars[r * r :]),
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
    return math.lcm(*{e.conductor for e in chain(chain.from_iterable(md.s), md.t)})


def _scalar_parser():
    """`Cyclotomic.from_json_dict`, run once per distinct scalar object
    of one document.  Objects in the form `to_json_dict` writes (an
    integer "N" and pairs of strings in "c") are keyed by those fields,
    which are all the parse reads; any other object is parsed on its
    own, so a malformed entry raises where it stands."""
    parsed: dict = {}

    def parse(obj) -> Cyclotomic:
        if type(obj) is dict and type(obj.get("N")) is int and type(obj.get("c")) is list:
            key = [obj["N"]]
            for pair in obj["c"]:
                if type(pair) is not list or len(pair) != 2:
                    break
                p, q = pair
                if type(p) is not str or type(q) is not str:
                    break
                key += pair
            else:
                key = tuple(key)
                if key not in parsed:
                    parsed[key] = Cyclotomic.from_json_dict(obj)
                return parsed[key]
        return Cyclotomic.from_json_dict(obj)

    return parse


def _divided(values: tuple, x: Cyclotomic) -> tuple:
    inv = x.inverse()
    return _distinct_map(lambda v: v * inv, values)


def _dual_permutation(md: ModularData) -> tuple | None:
    s2 = md.packed_s_squared()
    nums = s2.nums
    support = (nums != 0).any(axis=2)
    if (support.sum(axis=1) != 1).any():
        return None
    perm = support.argmax(axis=1)
    hits = nums[np.arange(md.rank), perm]
    # each hit must be 1 = den * zeta^0 / den
    if (hits[:, 1:] != 0).any() or (_int_compatible(hits[:, 0], s2.den) != s2.den).any():
        return None
    if sorted(perm.tolist()) != list(range(md.rank)):
        return None
    return tuple(perm.tolist())


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
    of the block times conj(S)^T, one packed matrix product per block.
    Each off-diagonal row is mirrored to (j, i, k), and the rows are
    sorted once.  The first bad coefficient in (i, j, k) order has
    i <= j (its mirror would come earlier), and the blocks run in that
    order, so the error names the same coefficient as a full scan.
    """
    u = md.unit_index
    unit_row = md.s[u]
    if any(x.is_zero() for x in unit_row):
        raise NonModular("unit row of S has a zero entry")
    s = md.packed_s()
    inverses = _distinct_map(Cyclotomic.inverse, unit_row)
    weighted = s.times(PackedMatrix.pack((inverses,), s.conductor))
    conj_t = s.conj().transpose()
    r, phi = md.rank, s.nums.shape[2]
    first, second = np.triu_indices(r)  # the pairs i <= j, row-major
    step = max(1, _BLOCK_ENTRIES // (r * (2 * phi - 1)))
    keys, values = [], []
    for start in range(0, len(first), step):
        i, j = first[start : start + step], second[start : start + step]
        left = PackedMatrix(s.conductor, s.nums[i], s.den)
        fused = left.times(PackedMatrix(s.conductor, weighted.nums[j], weighted.den)) @ conj_t
        nums, den = fused.nums, fused.den
        value = _int_compatible(nums[:, :, 0], den)
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
    return _assemble(keys[order], _settle(values[order]))


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


def with_ring(md: ModularData, ring: FusionRing | None = None) -> ModularData:
    """Attach a ring (derived via Verlinde when not supplied)."""
    if ring is None:
        if md.ring is not None:
            return md
        ring = md._derived("ring", ring_from_verlinde)
    return ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=ring)


# ---------------------------------------------------------------------------
# Gauss sums and central charge
# ---------------------------------------------------------------------------


def _gauss_sum(md: ModularData, sign: int) -> Cyclotomic:
    """tau+ (sign 1) or tau- (sign -1) = sum_i d_i^2 theta_i^sign,
    computed once per datum: one term per distinct (d_i, theta_i^sign)
    pair, times its multiplicity."""

    def compute(md: ModularData) -> Cyclotomic:
        theta = md.theta() if sign > 0 else _distinct_map(Cyclotomic.inverse, md.theta())
        total = ZERO
        for _, (d, th), count in _distinct(md.dims(), theta):
            total = total + d * d * th * count
        return total

    return md._derived(f"tau{sign:+d}", compute)


def gauss_sums(md: ModularData) -> tuple[Cyclotomic, Cyclotomic, Cyclotomic]:
    """(tau_plus, tau_minus, D) with the identity tau+ tau- = D^2 enforced."""
    tau_plus, tau_minus = _gauss_sum(md, 1), _gauss_sum(md, -1)
    total = md.total_dim()
    if tau_plus * tau_minus != total * total:
        raise GaussIdentityFailure("tau+ tau- differs from D^2")
    return tau_plus, tau_minus, total


def central_charge(md: ModularData) -> Fraction:
    """c mod 8, from tau+/D = e^(2 pi i c/8); exact."""
    u = _gauss_sum(md, 1) * md.s_unit  # tau+ / D
    root = u.as_root_of_unity()
    if root is None:
        raise NotRootOfUnity(f"tau+/D = {u} is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


def central_charge_via_square(md: ModularData) -> Fraction:
    """Secondary route: (tau+/D)^2 = tau+/tau- exactly gives c mod 4,
    and of the two square roots e^(2 pi i c/8) and its negative,
    tau+/D is the one with tau+ = e^(2 pi i c/8) D exactly.  Used as a
    cross-check."""
    tau_plus, tau_minus, total = gauss_sums(md)
    square = tau_plus / tau_minus
    root = square.as_root_of_unity()
    if root is None:
        raise NotRootOfUnity(f"tau+/tau- = {square} is not a root of unity")
    k, m = root
    base = Fraction(4 * k, m) % 8
    return base if tau_plus == from_angle(base / 8) * total else (base + 4) % 8


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
    """Mirror braiding: S and T entrywise conjugated, same ring."""
    s = tuple(tuple(e.conj() for e in row) for row in md.s)
    t = tuple(e.conj() for e in md.t)
    return ModularData(s=s, t=t, unit_index=md.unit_index, ring=md.ring)


def box_tensor(a: ModularData, b: ModularData) -> ModularData:
    """Deligne-product data: Kronecker S, entrywise product T."""
    rb = b.rank
    s = tuple(
        tuple(a.s[i][j] * b.s[x][y] for j in range(a.rank) for y in range(rb))
        for i in range(a.rank)
        for x in range(rb)
    )
    t = tuple(a.t[i] * b.t[x] for i in range(a.rank) for x in range(rb))
    ring = None
    if a.ring is not None and b.ring is not None:
        ring = ring_product(a.ring, b.ring)
    return ModularData(
        s=s, t=t, unit_index=a.unit_index * rb + b.unit_index, ring=ring
    )


def double(md: ModularData) -> ModularData:
    """md box-tensor its reverse; always passes the central-charge gate."""
    return box_tensor(md, reverse(md))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _balancing_sides(md: ModularData, theta: tuple, factor: Cyclotomic) -> tuple:
    """((S T)^3, factor * S^2), packed, with T the diagonal of twists."""
    n = md.conductor()
    st = md.packed_s().embed(n).times(PackedMatrix.pack((theta,), n))
    return st @ st @ st, md.packed_s_squared().times(PackedMatrix.pack(((factor,),), n))


def validate_modular(md: ModularData) -> ValidationReport:
    """Exact check of every modular axiom; names are stable API.

    Positivity of d_i and D is decided by certified signs
    (`Cyclotomic.real_sign`), so no float threshold decides a check.
    """
    report = ValidationReport("modular data")
    r = md.rank
    u = md.unit_index

    s = md.packed_s()
    # argwhere is row-major, so this is the first asymmetric (i, j), i < j
    mismatch = np.argwhere(np.triu(~s.entries_equal(s.transpose()), 1))
    ok = not len(mismatch)
    report.add("s_symmetric", ok, None if ok else tuple(int(x) for x in mismatch[0]))

    dims = None
    if md.s_unit.is_zero():
        report.add("dims_real_positive", False, (u, u), "S_{uu} = 0")
    else:
        dims = md.dims()
        ok, where, detail = True, None, ""
        # each distinct value at its first label, so a failure names
        # the first label that carries it
        for i, (d,), _ in _distinct(dims):
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
        for _, (d,), count in _distinct(dims):
            square_sum = square_sum + d * d * count
        ok = total * total == square_sum
        detail = "" if ok else "1/S_uu squared differs from sum of d_i^2"
        # a certified sign needs a real D
        if ok and (total.conj() != total or total.real_sign() <= 0):
            ok, detail = False, "D not positive"
        report.add("total_dim", ok, None, detail)
    else:
        report.add("total_dim", False, None, "dims unavailable")

    perm = md.dual_permutation()
    if perm is None:
        report.add("s_squared_dual_permutation", False, None, "S^2 is not a permutation matrix")
    else:
        ok = all(perm[perm[i]] == i for i in range(r)) and perm[u] == u
        report.add(
            "s_squared_dual_permutation",
            ok,
            None if ok else (u,),
            "" if ok else "S^2 permutation is not an involution fixing the unit",
        )
        if not ok:
            perm = None

    if md.ring is not None:
        ok = perm is not None and perm == md.ring.dual
        report.add(
            "dual_matches_ring",
            ok,
            None,
            "" if ok else "S^2 permutation differs from the declared dual",
        )

    theta = None
    if md.t[u].is_zero():
        report.add("theta_normalized", False, (u,), "T_u = 0")
    else:
        theta = md.theta()
        report.add("theta_normalized", theta[u] == ONE, None)

    if theta is not None:
        ok, where = True, None
        for i, (th,), _ in _distinct(theta):
            if th.as_root_of_unity() is None:
                ok, where = False, (i,)
                break
        report.add("theta_root_of_unity", ok, where)

        if perm is not None:
            ok, where = True, None
            for i in range(r):
                if theta[perm[i]] != theta[i]:
                    ok, where = False, (i,)
                    break
            report.add("theta_dual_invariant", ok, where)
        else:
            report.add("theta_dual_invariant", False, None, "dual permutation unavailable")

        # (S T)^3 = (tau+/D) S^2 with T the normalized twist diagonal
        if dims is not None:
            tau_plus = _gauss_sum(md, 1)
            lhs, rhs = _balancing_sides(md, theta, tau_plus * md.s_unit)
            mismatch = np.argwhere(~lhs.entries_equal(rhs))
            ok = not len(mismatch)
            where = None if ok else tuple(int(x) for x in mismatch[0])
            report.add("balancing", ok, where)

            total = md.total_dim()
            report.add(
                "gauss_identity", tau_plus * _gauss_sum(md, -1) == total * total, None
            )
    else:
        report.add("theta_root_of_unity", False, None, "twists unavailable")
        report.add("theta_dual_invariant", False, None, "twists unavailable")
        report.add("balancing", False, None, "twists unavailable")
        report.add("gauss_identity", False, None, "twists unavailable")

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
