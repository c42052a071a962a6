"""Metric groups: the pointed sector, where everything is decidable.

A finite abelian group A carrying a quadratic form q : A -> Q/Z whose
associated bilinear pairing is nondegenerate is the same data as a
pointed modular category: S_{ab} is the exponentiated pairing over
sqrt(|A|), twists are e^(2 pi i q(a)), fusion is the group law.  This
module builds that data exactly, enumerates Lagrangian subgroups
(|L|^2 = |A|, q trivial on L) by growing isotropic subgroups, and
computes the Gauss-Milgram signature as an independent route to the
central charge.

Everything runs on integer tables over the element indices (mixed
radix, row-major over the cyclic factors).  The three that cost scalar
work, the q-exponent vector e with q(a) = e[a]/M for M the common
denominator of q, the twists and the distinct entries of S, are
computed at most once per `MetricGroup` and kept on it: one
`verdict --pointed` on a file reads them up to three times (validation,
the cross-section check and the hint check).  The coordinates, the
negation, the radical and the group law law[a, c] = a + c cost one
vectorised pass per cyclic factor, so they are rebuilt where they are
needed rather than kept.
The exponent matrix K[a, c] = (e[a + c] - e[a] - e[c]) mod M is the
pairing b(a, c) = K[a, c]/M of `MetricGroup.bilinear` on every pair,
quadratic q or not, and S[a, c] = e^(-2 pi i K[a, c]/M)/sqrt(|A|) is
one `Cyclotomic` per distinct exponent, gathered by K, so the scalar
work grows with the number of distinct pairing values (at most M), not
with |A|^2.  The radical and `validate_metric` read e and the
coordinates only; the Lagrangian enumeration adds one int16 table of
sums among the isotropic elements; the hint check
`matches_modular_data` compares given data with the tables directly,
without building a second `ModularData`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cyclotomic import _lcm, cyc_sum, from_angle, sqrt_int
from .errors import Degenerate, InputError, SizeLimit
from .fusion import group_ring
from .modular import ModularData, PackedMatrix
from .report import ValidationReport

# |A| <= 4096 < 2^15 also lets positions among the isotropic elements
# live in int16
SUBGROUP_SIZE_CAP = 4096


def _element_label(a: tuple) -> str:
    return ",".join(str(c) for c in a) if a else "0"


@dataclass(frozen=True)
class MetricGroup:
    orders: tuple
    q: dict

    def __post_init__(self):
        orders = tuple(self.orders)
        if any(not isinstance(n, int) or n < 1 for n in orders):
            raise InputError("orders must be positive integers")
        if len(self.q) != math.prod(orders):
            # Name the first missing element, as the full scan below
            # would.  This scan is bounded by the input, not by the
            # group: with fewer entries than elements one of the first
            # len(q) + 1 is missing, and with more the group is shorter.
            for a in product(*(range(n) for n in orders)):
                if a not in self.q:
                    raise InputError(f"q is missing element {a}")
            raise InputError("q lists elements outside the group")
        elements = tuple(product(*(range(n) for n in orders)))
        table = {}
        for a in elements:
            if a not in self.q:
                raise InputError(f"q is missing element {a}")
            table[a] = Fraction(self.q[a]) % 1
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "q", table)
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(elements)})
        object.__setattr__(self, "_cache", {})

    def _derived(self, compute):
        """compute(self), evaluated once per group and then cached."""
        cache = self._cache
        if compute not in cache:
            cache[compute] = compute(self)
        return cache[compute]

    # -- group structure -----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple:
        return self._elements

    def index(self, a: tuple) -> int:
        return self._index[a]

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def qval(self, a: tuple) -> Fraction:
        return self.q[a]

    def bilinear(self, a: tuple, b: tuple) -> Fraction:
        return (self.q[self.add(a, b)] - self.q[a] - self.q[b]) % 1

    def generators(self) -> list:
        """Canonical generators of the cyclic factors, reduced mod orders."""
        return [
            tuple(1 % self.orders[j] if i == j else 0 for j in range(len(self.orders)))
            for i in range(len(self.orders))
        ]

    def radical(self) -> list:
        """Elements pairing trivially with everything."""
        return [self._elements[i] for i in np.flatnonzero(_radical_mask(self)).tolist()]

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "q": {_element_label(a): str(self.q[a]) for a in self._elements},
        }

    @staticmethod
    def from_json_dict(obj) -> "MetricGroup":
        if not isinstance(obj, dict) or "orders" not in obj or "q" not in obj:
            raise InputError("metric section needs 'orders' and 'q'")
        orders = obj["orders"]
        if not isinstance(orders, list):
            raise InputError("orders must be a list")
        if not isinstance(obj["q"], dict):
            raise InputError("q must be an object")
        table = {}
        for key, value in obj["q"].items():
            if key == "0" and not orders:
                a: tuple = ()
            else:
                try:
                    a = tuple(int(c) for c in key.split(","))
                except ValueError as exc:
                    raise InputError(f"bad element key {key!r}") from exc
            if isinstance(value, (bool, float)):
                raise InputError(f"bad rational {value!r} for element {key!r}")
            try:
                table[a] = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational {value!r} for element {key!r}") from exc
        return MetricGroup(orders=tuple(orders), q=table)


# ---------------------------------------------------------------------------
# integer tables over element indices; `MetricGroup._derived` keeps
# the exponents, the twists and the S entries
# ---------------------------------------------------------------------------


def _strides(orders: tuple) -> list:
    """Element a has index sum_u a_u * stride_u; the zero element has index 0."""
    strides, stride = [], math.prod(orders)
    for order in orders:
        stride //= order
        strides.append(stride)
    return strides


def _coordinates(mg: MetricGroup) -> np.ndarray:
    """(s, |A|) int64: coordinate u of every element index."""
    indices = np.arange(mg.size, dtype=np.int64)
    coords = np.empty((len(mg.orders), mg.size), dtype=np.int64)
    for u, (order, stride) in enumerate(zip(mg.orders, _strides(mg.orders))):
        coords[u] = indices // stride % order
    return coords


def _exponents(mg: MetricGroup) -> tuple[np.ndarray, int]:
    """(e, M): q(a) = e[a] / M for every element index, with M the
    common denominator of q."""
    values = [mg.q[a] for a in mg.elements]
    m = 1
    for v in values:
        m = _lcm(m, v.denominator)
    # e[a + c] - e[a] - e[c] lies in (-2M, M), so int64 holds it below 2^62
    e = np.array(
        [v.numerator * (m // v.denominator) for v in values],
        dtype=np.int64 if m < 2**62 else object,
    )
    return e, m


def _group_law(mg: MetricGroup, among=None, dtype=np.int64) -> np.ndarray:
    """law[i, j] = index of a_i + a_j for a_i, a_j the elements with
    indices `among` (all of them by default), added coordinate by
    coordinate in `dtype`."""
    coords = _coordinates(mg)
    if among is not None:
        coords = coords[:, among]
    coords = coords.astype(dtype, copy=False)
    law = np.zeros((coords.shape[1],) * 2, dtype=dtype)
    for digit, order, stride in zip(coords, mg.orders, _strides(mg.orders)):
        law += (digit[:, None] + digit[None, :]) % order * stride
    return law


def _radical_mask(mg: MetricGroup) -> np.ndarray:
    """Boolean over element indices: b(a, g_u) = 0 for every generator
    g_u, with b(a, g_u) M = (e[a + g_u] - e[a] - e[g_u]) mod M."""
    e, m = mg._derived(_exponents)
    index = np.arange(mg.size, dtype=np.int64)
    mask = np.ones(mg.size, dtype=bool)
    for digit, order, stride in zip(_coordinates(mg), mg.orders, _strides(mg.orders)):
        # a + g_u steps coordinate u up by one, wrapping at its order;
        # the zero element steps to g_u itself
        shifted = index + np.where(digit == order - 1, (1 - order) * stride, stride)
        mask &= (e[shifted] - e - e[shifted[0]]) % m == 0
    return mask


def _s_entries(mg: MetricGroup) -> tuple[list, np.ndarray]:
    """(values, slots): S[a, c] = values[slots[a, c]].

    One value e^(-2 pi i k/M) / sqrt(|A|) per distinct exponent k of
    K[a, c] = (e[a + c] - e[a] - e[c]) mod M, and slots is K with each
    exponent replaced by its place among the distinct ones.
    """
    n = mg.size
    e, m = mg._derived(_exponents)
    k = (e[_group_law(mg)] - e[:, None] - e[None, :]) % m
    inv_sqrt = sqrt_int(n).inverse()
    distinct, first, slots = np.unique(k.ravel(), return_index=True, return_inverse=True)
    values = [None] * len(distinct)
    # in order of first appearance, so a conductor error names the same
    # entry as a row-major build would
    for slot in np.argsort(first).tolist():
        values[slot] = from_angle(Fraction(-int(distinct[slot]), m)) * inv_sqrt
    # kept per group, so in the narrowest dtype that indexes the values
    return values, slots.reshape(n, n).astype(np.min_scalar_type(len(values)))


def _twists(mg: MetricGroup) -> tuple:
    """T[a] = e^(2 pi i q(a)), one `from_angle` per distinct value of q."""
    angles: dict = {}
    for a in mg.elements:
        v = mg.q[a]
        if v not in angles:
            angles[v] = from_angle(v)
    return tuple(angles[mg.q[a]] for a in mg.elements)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_metric(mg: MetricGroup) -> ValidationReport:
    """Quadratic-form axioms via the Gram presentation.

    q is quadratic iff it agrees with the polynomial built from its
    values on generators (and generator pairs) and that polynomial
    descends to the quotient; nondegeneracy is a radical computation.
    The polynomial is evaluated at every element at once over the
    common denominator M of q.
    """
    report = ValidationReport("metric group")
    zero = tuple(0 for _ in mg.orders)
    report.add("q_zero_at_zero", mg.qval(zero) == 0, (zero,) if mg.qval(zero) else None)

    s = len(mg.orders)
    gens = mg.generators()
    diag = [mg.qval(g) for g in gens]
    off = {}
    for u in range(s):
        for v in range(u + 1, s):
            off[(u, v)] = mg.bilinear(gens[u], gens[v])

    ok, where = True, None
    for u in range(s):
        n = mg.orders[u]
        if (n * n * diag[u]) % 1 != 0 or (2 * n * diag[u]) % 1 != 0:
            ok, where = False, (u,)
            break
        for v in range(s):
            if v == u:
                continue
            key = (min(u, v), max(u, v))
            if (n * off[key]) % 1 != 0:
                ok, where = False, (u, v)
                break
        if not ok:
            break
    report.add("q_descends_to_quotient", ok, where)

    # M q(a) against sum_u a_u^2 M diag_u + sum_{u<v} a_u a_v M off_uv;
    # the Gram values have denominators dividing M, and every partial
    # sum is at most M (sum_u (n_u - 1))^2
    e, m = mg._derived(_exponents)
    coords = _coordinates(mg)
    if m * (1 + sum(n - 1 for n in mg.orders)) ** 2 >= 2**63:
        coords = coords.astype(object)
    want = np.zeros(mg.size, dtype=coords.dtype)
    for u in range(s):
        want += coords[u] * coords[u] * int(diag[u] * m)
        for v in range(u + 1, s):
            want += coords[u] * coords[v] * int(off[(u, v)] * m)
    wrong = np.flatnonzero(want % m != e)
    report.add("q_is_quadratic", not wrong.size, (mg.elements[wrong[0]],) if wrong.size else None)

    rad = np.flatnonzero(_radical_mask(mg))
    report.add(
        "nondegenerate",
        len(rad) == 1,
        None if len(rad) == 1 else (mg.elements[rad[1]] if len(rad) > 1 else None,),
    )
    return report


# ---------------------------------------------------------------------------
# modular data
# ---------------------------------------------------------------------------


def metric_modular_data(mg: MetricGroup) -> ModularData:
    """Pointed modular data; raises Degenerate when the form is degenerate.

    S is gathered from its distinct entries by the pairing exponents;
    the ring is the group ring of the orders, whose elements and labels
    come in the order of `mg.elements`.
    """
    if np.count_nonzero(_radical_mask(mg)) != 1:
        raise Degenerate("bilinear form has a nonzero radical")
    values, slots = mg._derived(_s_entries)
    s = tuple(tuple(map(values.__getitem__, row)) for row in slots.tolist())
    ring = group_ring(mg.orders)
    return ModularData(s=s, t=mg._derived(_twists), unit_index=0, ring=ring)


def matches_modular_data(mg: MetricGroup, md: ModularData) -> bool:
    """Does md equal the data regenerated from mg (labels aside)?

    Compared with mg's tables, without building that data: packed S
    against the distinct entries gathered by the pairing exponents, T
    entry by entry, and the ring against the group law (every fusion
    row is [a, c, a + c, 1], the dual is a -> -a, the unit is 0).
    """
    if np.count_nonzero(_radical_mask(mg)) != 1:
        return False
    values, slots = mg._derived(_s_entries)
    twists = mg._derived(_twists)
    n = mg.size
    if md.rank != n or md.unit_index != 0:
        return False
    table = PackedMatrix.pack([values])
    s = PackedMatrix(table.conductor, table.nums[0][slots], table.den)
    if not s.entries_equal(md.packed_s()).all():
        return False
    if md.t != twists:
        return False
    ring = md.ring
    if ring is None:
        return True
    law = _group_law(mg)
    # -a is the c with a + c = 0
    if ring.unit != (0,) or ring.dual != tuple(np.argmax(law == 0, axis=1).tolist()):
        return False
    table = ring.table
    if len(table) != n * n or not (table[:, 3] == 1).all():
        return False
    # n^2 distinct keys, each (a, c, a + c), name every pair (a, c) once
    keys = ring.indices()
    return bool((law[keys[:, 0], keys[:, 1]] == keys[:, 2]).all())


def abelian_double(orders: tuple) -> MetricGroup:
    """Hyperbolic form on G + G-hat: q(g, chi) = chi(g) = sum g_u chi_u / n_u."""
    orders = tuple(orders)
    doubled = orders + orders
    s = len(orders)
    q = {}
    for a in product(*(range(n) for n in doubled)):
        g, chi = a[:s], a[s:]
        q[a] = sum(
            (Fraction(gu * cu, nu) for gu, cu, nu in zip(g, chi, orders)),
            Fraction(0),
        ) % 1
    return MetricGroup(orders=doubled, q=q)


# ---------------------------------------------------------------------------
# Gauss-Milgram signature
# ---------------------------------------------------------------------------


def milgram_signature(mg: MetricGroup) -> Fraction:
    """sigma mod 8 with sum_a e^(2 pi i q(a)) = sqrt(|A|) e^(2 pi i sigma/8).

    Independent of the S/T route: g / sqrt(|A|) = g sqrt(|A|) / |A| is
    exactly the root of unity e^(2 pi i sigma/8) (`sqrt_int` is exact),
    so sigma is read off `as_root_of_unity` with no float branch.
    The sum g = sum_k count_k zeta_M^k runs over the histogram of the
    q-exponents, one `from_angle` per distinct value of q.
    """
    e, m = mg._derived(_exponents)
    exponents, counts = np.unique(e, return_counts=True)
    g = cyc_sum(
        from_angle(Fraction(k, m)) * count
        for k, count in zip(exponents.tolist(), counts.tolist())
    )
    if g * g.conj() != mg.size:
        raise Degenerate("Gauss sum magnitude differs from sqrt(|A|)")
    root = (g * sqrt_int(mg.size) / mg.size).as_root_of_unity()
    if root is None:  # pragma: no cover - magnitude check rules this out
        raise Degenerate("Gauss sum over sqrt(|A|) is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


# ---------------------------------------------------------------------------
# Lagrangian subgroups
# ---------------------------------------------------------------------------


def lagrangian_subgroups(mg: MetricGroup) -> list:
    """All subgroups L with |L|^2 = |A| and q|_L = 0, sorted canonically.

    Grows isotropic subgroups from {0}, one cyclic extension <H, a> at a
    time, and extends each subgroup once.  If q|_L = 0 then
    b(x, y) = q(x + y) - q(x) - q(y) = 0 on L, for any q, so only
    isotropic a with every h + a isotropic may extend H; one
    representative per coset a + H is tried, every coset of the closure
    must be isotropic, and its order must divide sqrt(|A|).  Capped at
    |A| = SUBGROUP_SIZE_CAP.
    """
    n = mg.size
    if n > SUBGROUP_SIZE_CAP:
        raise SizeLimit(f"|A| = {n} exceeds the subgroup enumeration cap {SUBGROUP_SIZE_CAP}")
    target = math.isqrt(n)
    if target * target != n:
        return []
    e, _ = mg._derived(_exponents)
    iso = np.flatnonzero(e == 0)
    if not iso.size or iso[0] != 0:
        return []
    sums = _isotropic_sums(mg, iso)
    root = np.zeros(1, dtype=sums.dtype)  # {0}; zero is isotropic position 0
    seen = {root.tobytes()}
    stack = [root]
    found = []
    while stack:
        h = stack.pop()
        if len(h) == target:
            found.append(h)
            continue
        for rows in _extensions(h, sums, target):
            for row in rows:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    stack.append(row)
    elements = mg.elements
    return sorted(tuple(elements[i] for i in iso[l].tolist()) for l in found)


def _isotropic_sums(mg: MetricGroup, iso: np.ndarray) -> np.ndarray:
    """sums[i, j] = position in iso of iso[i] + iso[j], or -1 when that
    sum is not isotropic: an int16 table over the isotropic elements."""
    position = np.full(mg.size, -1, dtype=np.int16)
    position[iso] = np.arange(len(iso))
    # indices below SUBGROUP_SIZE_CAP fit in int32
    return position[_group_law(mg, iso, np.int32)]


def _extensions(h: np.ndarray, sums: np.ndarray, target: int) -> list:
    """The subgroups <H, a> with every element isotropic and order
    dividing target, as arrays whose rows are sorted positions; one row
    per representative a of a coset a + H, so a subgroup may repeat.

    H is a sorted array of isotropic positions.  a qualifies when every
    h + a is isotropic; then so is every element of a + H, which is why
    the least position of each coset stands for it.
    """
    size = len(h)
    inside = np.zeros(len(sums), dtype=bool)
    inside[h] = True
    rows = sums[h]
    candidates = np.flatnonzero((rows >= 0).all(axis=0) & ~inside)
    first = rows[:, candidates]
    keep = first.min(axis=0) == candidates
    candidates = candidates[keep]
    # blocks[k] holds the coset H + k a of each candidate a, one per column
    blocks = [np.broadcast_to(h[:, None], (size, len(candidates))), first[:, keep]]
    order = np.zeros(len(candidates), dtype=np.int64)  # 0 growing, -1 refused
    shift = sums[candidates, candidates]  # 2a
    while True:
        growing = order == 0
        isotropic = shift >= 0
        shift = np.where(isotropic, shift, 0)
        order[growing & ~isotropic] = -1
        order[growing & isotropic & inside[shift]] = len(blocks)
        growing = order == 0
        if not growing.any():
            break
        if size * (len(blocks) + 1) > target:
            order[growing] = -1
            break
        coset = rows[:, np.where(growing, shift, 0)]
        order[growing & (coset < 0).any(axis=0)] = -1
        blocks.append(coset)
        shift = sums[shift, candidates]
    out = []
    for k in set(order[order > 0].tolist()):
        if target % (size * k) == 0:
            columns = np.flatnonzero(order == k)
            group = np.concatenate([block[:, columns] for block in blocks[:k]])
            out.append(np.ascontiguousarray(np.sort(group, axis=0).T))
    return out


def subgroup_indicator(mg: MetricGroup, subgroup) -> tuple:
    members = set(subgroup)
    return tuple(1 if a in members else 0 for a in mg.elements)
