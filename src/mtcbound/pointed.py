"""Metric groups: the pointed sector, where everything is decidable.

A finite abelian group A carrying a quadratic form q : A -> Q/Z whose
associated bilinear pairing is nondegenerate is the same data as a
pointed modular category: S_{ab} is the exponentiated pairing over
sqrt(|A|), twists are e^(2 pi i q(a)), fusion is the group law.  This
module builds that data exactly, enumerates Lagrangian subgroups
(|L|^2 = |A|, q trivial on L) by brute force, and computes the
Gauss-Milgram signature as an independent route to the central charge.

The modular data come from two integer tables over the element indices
(mixed radix, row-major over the cyclic factors).  The group law
law[a, c] = a + c gives the fusion dict and the dual.  The exponent
matrix K[a, c] = M (q(a + c) - q(a) - q(c)) mod M, with M the common
denominator of q, is the pairing b(a, c) = K[a, c]/M of
`MetricGroup.bilinear` on every pair, quadratic q or not.  K's
generator columns decide nondegeneracy, and S[a, c] =
e^(-2 pi i K[a, c]/M)/sqrt(|A|) is built as one `Cyclotomic` per
distinct exponent, gathered by K, so the scalar work grows with the
number of distinct pairing values (at most M), not with |A|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cyclotomic import _lcm, cyc_sum, from_angle, sqrt_int
from .errors import Degenerate, InputError, SizeLimit
from .fusion import FusionRing
from .modular import ModularData
from .report import ValidationReport

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
        elements = tuple(product(*(range(n) for n in orders)))
        table = {}
        for a in elements:
            if a not in self.q:
                raise InputError(f"q is missing element {a}")
            table[a] = Fraction(self.q[a]) % 1
        if len(self.q) != len(elements):
            raise InputError("q lists elements outside the group")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "q", table)
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(elements)})

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
        gens = self.generators()
        return [
            a
            for a in self._elements
            if all(self.bilinear(a, g) == 0 for g in gens)
        ]

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
# validation
# ---------------------------------------------------------------------------


def validate_metric(mg: MetricGroup) -> ValidationReport:
    """Quadratic-form axioms via the Gram presentation.

    q is quadratic iff it agrees with the polynomial built from its
    values on generators (and generator pairs) and that polynomial
    descends to the quotient; nondegeneracy is a radical computation.
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

    ok, where = True, None
    for a in mg.elements:
        want = sum(
            (a[u] * a[u] * diag[u] for u in range(s)), Fraction(0)
        ) + sum(
            (a[u] * a[v] * off[(u, v)] for u in range(s) for v in range(u + 1, s)),
            Fraction(0),
        )
        if want % 1 != mg.qval(a):
            ok, where = False, (a,)
            break
    report.add("q_is_quadratic", ok, where)

    rad = mg.radical()
    report.add(
        "nondegenerate",
        len(rad) == 1,
        None if len(rad) == 1 else (rad[1] if len(rad) > 1 else None,),
    )
    return report


# ---------------------------------------------------------------------------
# modular data
# ---------------------------------------------------------------------------


def _group_law(mg: MetricGroup) -> np.ndarray:
    """law[a, c] = index of a + c, on mixed-radix element indices.

    `elements` is the product of the cyclic factors in row-major order,
    so element a has index sum_u a_u * stride_u and addition works digit
    by digit; the zero element has index 0.
    """
    n = mg.size
    indices = np.arange(n, dtype=np.int64)
    law = np.zeros((n, n), dtype=np.int64)
    stride = n
    for order in mg.orders:
        stride //= order
        digit = indices // stride % order
        law += (digit[:, None] + digit[None, :]) % order * stride
    return law


def _pairing_exponents(mg: MetricGroup, law: np.ndarray) -> tuple[np.ndarray, int]:
    """(K, M): b(a, c) = K[a, c] / M for every pair of element indices,
    with M the common denominator of q and b(a, c) = q(a + c) - q(a) - q(c)
    mod 1, the definition of `MetricGroup.bilinear`."""
    values = [mg.q[a] for a in mg.elements]
    m = 1
    for v in values:
        m = _lcm(m, v.denominator)
    # q(a + c) - q(a) - q(c) lies in (-2M, M), so int64 holds it below 2^62
    e = np.array(
        [v.numerator * (m // v.denominator) for v in values],
        dtype=np.int64 if m < 2**62 else object,
    )
    return (e[law] - e[:, None] - e[None, :]) % m, m


def metric_modular_data(mg: MetricGroup) -> ModularData:
    """Pointed modular data; raises Degenerate when the form is degenerate.

    The group law is one integer table, and S is read off the pairing
    exponents K: S[a, c] = e^(-2 pi i K[a, c]/M) / sqrt(|A|), one
    `Cyclotomic` per distinct exponent, gathered by K.
    """
    n = mg.size
    law = _group_law(mg)
    k, m = _pairing_exponents(mg, law)
    gens = [mg.index(g) for g in mg.generators()]
    if np.count_nonzero((k[:, gens] == 0).all(axis=1)) != 1:
        raise Degenerate("bilinear form has a nonzero radical")
    inv_sqrt = sqrt_int(n).inverse()
    distinct, first, where = np.unique(k.ravel(), return_index=True, return_inverse=True)
    values = [None] * len(distinct)
    # in order of first appearance, so a conductor error names the same
    # entry as a row-major build would
    for slot in np.argsort(first).tolist():
        values[slot] = from_angle(Fraction(-int(distinct[slot]), m)) * inv_sqrt
    s = tuple(
        tuple(map(values.__getitem__, row)) for row in where.reshape(n, n).tolist()
    )
    elements = mg.elements
    t = tuple(from_angle(mg.qval(a)) for a in elements)
    labels = tuple(_element_label(a) for a in elements)
    columns = list(range(n))
    fusion = dict.fromkeys(
        zip(np.repeat(columns, n).tolist(), columns * n, law.ravel().tolist()), 1
    )
    ring = FusionRing(
        labels=labels,
        unit=(0,),
        dual=tuple(np.argmax(law == 0, axis=1).tolist()),
        fusion=fusion,
    )
    return ModularData(s=s, t=t, unit_index=0, ring=ring)


def matches_modular_data(mg: MetricGroup, md: ModularData) -> bool:
    """Does md equal the data regenerated from mg (labels aside)?"""
    try:
        regenerated = metric_modular_data(mg)
    except Degenerate:
        return False
    if regenerated.rank != md.rank or regenerated.unit_index != md.unit_index:
        return False
    if not regenerated.packed_s().entries_equal(md.packed_s()).all():
        return False
    if any(regenerated.t[i] != md.t[i] for i in range(md.rank)):
        return False
    if md.ring is not None:
        ring = regenerated.ring
        if md.ring.fusion != ring.fusion or md.ring.dual != ring.dual:
            return False
        if md.ring.unit != ring.unit:
            return False
    return True


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
    """
    g = cyc_sum(from_angle(mg.qval(a)) for a in mg.elements)
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

    Brute-force closure growth over the isotropic elements with
    lexicographic canonical generating chains; capped at |A| = 4096.
    """
    n = mg.size
    if n > SUBGROUP_SIZE_CAP:
        raise SizeLimit(f"|A| = {n} exceeds the subgroup enumeration cap {SUBGROUP_SIZE_CAP}")
    root = math.isqrt(n)
    if root * root != n:
        return []
    target = root
    iso = [a for a in mg.elements if mg.qval(a) == 0]
    zero = tuple(0 for _ in mg.orders)
    if zero not in iso:
        return []
    iso_set = set(iso)

    found: set = set()
    seen: set = set()

    def grow(current: frozenset, start: int) -> None:
        if len(current) == target:
            found.add(current)
            return
        for idx in range(start, len(iso)):
            a = iso[idx]
            if a in current:
                continue
            new = set(current)
            shift = a
            while shift not in current:
                new.update(mg.add(c, shift) for c in current)
                shift = mg.add(shift, a)
            if len(new) > target or target % len(new) != 0:
                continue
            if not new <= iso_set:
                continue
            fz = frozenset(new)
            if fz in seen:
                continue
            seen.add(fz)
            grow(fz, idx + 1)

    grow(frozenset([zero]), 0)
    return sorted(tuple(sorted(l)) for l in found)


def subgroup_indicator(mg: MetricGroup, subgroup) -> tuple:
    members = set(subgroup)
    return tuple(1 if a in members else 0 for a in mg.elements)
