"""Metric groups: the pointed sector, where everything is decidable.

A finite abelian group A carrying a quadratic form q : A -> Q/Z whose
associated bilinear pairing is nondegenerate is the same data as a
pointed modular category: S_{ab} is the exponentiated pairing over
sqrt(|A|), twists are e^(2 pi i q(a)), fusion is the group law.  This
module builds that data exactly, enumerates Lagrangian subgroups
(|L|^2 = |A|, q trivial on L) by growing isotropic subgroups, and
computes the Gauss-Milgram signature as an independent route to the
central charge.

Everything runs on integer tables over the element indices, in the one
encoding of `mtcbound.fusion` (mixed radix, row-major over the cyclic
factors; `group_law`, `element_label`), so element i of `mg.elements`
is label i of `group_ring(mg.orders)`.  What costs work is computed at
most once per `MetricGroup` and kept on it: the q-exponent vector e
with q(a) = e[a]/M for M the common denominator of q, the radical, the
group ring, and the factored T and S.  One `verdict --pointed` on a
file reads them in validation, in the cross-section check, in the hint
check, in the Milgram sum that gives its c and in the Lagrangian
enumeration.
The exponent matrix K[a, c] = (e[a + c] - e[a] - e[c]) mod M, with
a + c read off the group ring's rows, is the pairing b(a, c) = K[a, c]/M
on every pair, quadratic q or not, and S[a, c] = e^(-2 pi i K[a, c]/M)
/ sqrt(|A|) is one `Cyclotomic` per distinct exponent, gathered by K,
so the scalar work grows with the number of distinct pairing values (at
most M), not with |A|^2.  T[a] = e^(2 pi i e[a]/M) is one `from_angle`
per distinct q-exponent, gathered by e.  Both are `FactoredMatrix`
objects, the form in which every `ModularData` holds S and T:
`metric_modular_data` puts them and the group ring on the datum as they
are, so the datum and its group share them, and the hint check
`matches_modular_data` compares given data with them (S and T in value,
the ring by `FusionRing.same_fusion`) without building a second
`ModularData`.  `validate_metric` reads e, the coordinates and the
radical only, and evaluates the Gram polynomial at every element as
one integer product.  The Lagrangian enumeration adds one int16
`group_law` among the isotropic elements and runs one order at a time
(`isotropic_subgroups`): all isotropic subgroups of one order are one
array, extended together in chunks of bounded size.  Each is made once,
along its greedy generator chain, so none is deduplicated.  Its rows
over element indices, each sorted and then ordered by `np.lexsort`, come
in the canonical order of `lagrangian_subgroups`; `lagrangian_answer`
maps them to element tuples and makes their indicators in one int8
scatter (`_indicators`, which `lagrangian_candidates` shares), the exact
answer of a hinted `obstruction.verdict`.
The twist exponents of its data are read as any datum's are
(`modular._twist_exponents`): T_u = 1, so T's own root exponents, one
kernel read per distinct q-exponent, kept on T, which the data of one
group share.  The hinted `obstruction.verdict` and the Milgram sum read
none of them.  The Milgram sum is one
integer product of the q-exponent histogram with the power rows of
zeta_M, and `cyclotomic._root_phase` reads the root of unity
g / sqrt(|A|) off it exactly, or proves that there is none.  A hinted
`obstruction.verdict` takes its c from it once `matches_modular_data`
holds: on those data tau+ S_uu is g / sqrt(|A|) too.

`lagrangian_candidates` is the other bridge between a metric group and
modular data: where `matches_modular_data` checks data against a given
group, it finds the group in data given alone, for the unhinted
`obstruction.verdict`.  The finding is the pointed certificate
(`modular._pointed_certificate`, kept on the datum by
`ModularData.pointed_certificate`), which `validate_modular` reads
too: integer numpy checks of O(|G| r^2), on a generating set G of at
most log2(r) labels, that the declared ring is the group ring of an
abelian group whose pairing, read off the twists, gives S and is
nondegenerate, with negation as the dual.  The candidates are then
exactly the indicators of the Lagrangian subgroups, which
`isotropic_subgroups` lists from the ring's law among the labels of
trivial twist; they are sorted, as the search sorts, so the report is
the search's byte for byte.  If the certificate fails it
returns None, and the search runs.  The enumeration's size cap
(`SUBGROUP_SIZE_CAP`) and the input contract of `isotropic_subgroups`
are read and checked in this module alone.  The enumeration gathers
int16 positions, 2 bytes each, in blocks of `fusion._BLOCK_BYTES` (2^21
bytes).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cyclotomic import Cyclotomic, _digit_limit_error, _lcm, _root_phase, from_angle, sqrt_int
from .errors import Degenerate, InputError, SizeLimit
from .fusion import (
    _block_step,
    _exponent_array,
    _widen,
    element_label,
    group_coordinates,
    group_law,
    group_ring,
    group_strides,
)
from .modular import FactoredMatrix, ModularData, _power_rows, _ring_law, _twist_exponents
from .report import ValidationReport

# |A| <= 4096 < 2^15 also lets positions among the isotropic elements
# live in int16
SUBGROUP_SIZE_CAP = 4096

# Bound on the int16 positions the Lagrangian enumeration holds in its
# pending and found subgroups, 64 MB of them.  The tests and the
# benchmark peak at 282,256 (the double of (Z_4)^3) and the double of
# (Z_2)^5 at 2,086,920; the double of (Z_2)^6 passes the cap.
HELD_POSITIONS_CAP = 2**25


@dataclass(frozen=True)
class MetricGroup:
    orders: tuple
    q: dict

    def __post_init__(self):
        orders = tuple(self.orders)
        if any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in orders):
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

    def qval(self, a: tuple) -> Fraction:
        return self.q[a]

    def radical(self) -> list:
        """Elements pairing trivially with everything."""
        return [self._elements[i] for i in np.flatnonzero(self._derived(_radical_mask)).tolist()]

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "q": {element_label(a): str(self.q[a]) for a in self._elements},
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
        table, keys = {}, {}  # element -> q, element -> its key
        for key, value in obj["q"].items():
            if key == "0" and not orders:
                a: tuple = ()
            else:
                try:
                    a = tuple(int(c) for c in key.split(","))
                except ValueError as exc:
                    raise InputError(f"bad element key {key!r}") from exc
            if a in keys:
                raise InputError(f"element keys {keys[a]!r} and {key!r} name one element")
            keys[a] = key
            if isinstance(value, (bool, float)):
                raise InputError(f"bad rational {value!r} for element {key!r}")
            try:
                table[a] = _rational(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                # Fraction names the strings it cannot parse; any other
                # ValueError is int's refusal past the digit limit
                if isinstance(exc, ValueError) and not str(exc).startswith("Invalid literal"):
                    raise _digit_limit_error() from exc
                raise InputError(f"bad rational {value!r} for element {key!r}") from exc
        return MetricGroup(orders=tuple(orders), q=table)


def _rational(value) -> Fraction:
    """Fraction(value), refusing first a decimal exponent e with |e| past
    the int-string digit limit, of which Fraction would build 10^|e| in
    full; the mantissa must still be one that Fraction reads."""
    if isinstance(value, str):
        head, e, tail = value.lower().rpartition("e")
        limit = sys.get_int_max_str_digits()
        if e and limit and tail == tail.lstrip():  # Fraction reads no space there
            try:
                exponent = int(tail)
            except ValueError:  # not an integer, or one past the limit: Fraction says which
                exponent = 0
            if abs(exponent) > limit:
                Fraction(head + "e0")  # refuses a malformed mantissa
                raise _digit_limit_error()
    return Fraction(value)


# ---------------------------------------------------------------------------
# integer tables over element indices; `MetricGroup._derived` keeps
# the exponents, the radical, the group ring, the twists and S
# ---------------------------------------------------------------------------


def _exponents(mg: MetricGroup) -> tuple[np.ndarray, int]:
    """(e, M): q(a) = e[a] / M for every element index, with M the
    common denominator of q."""
    values = [mg.q[a] for a in mg.elements]
    m = 1
    for v in values:
        m = _lcm(m, v.denominator)
    return _exponent_array([v.numerator * (m // v.denominator) for v in values], m), m


def _radical_mask(mg: MetricGroup) -> np.ndarray:
    """Boolean over element indices: b(a, g_u) = 0 for every generator
    g_u, with b(a, g_u) M = (e[a + g_u] - e[a] - e[g_u]) mod M."""
    e, m = mg._derived(_exponents)
    index = np.arange(mg.size, dtype=np.int64)
    mask = np.ones(mg.size, dtype=bool)
    coords = group_coordinates(mg.orders)
    for digit, order, stride in zip(coords, mg.orders, group_strides(mg.orders)):
        # a + g_u steps coordinate u up by one, wrapping at its order;
        # the zero element steps to g_u itself
        shifted = index + np.where(digit == order - 1, (1 - order) * stride, stride)
        mask &= (e[shifted] - e - e[shifted[0]]) % m == 0
    return mask


def _group_ring(mg: MetricGroup):
    """The group ring of the orders: its label i is element i of
    `mg.elements`, and its third column is the group law."""
    return group_ring(mg.orders)


def _s_entries(mg: MetricGroup) -> FactoredMatrix:
    """S: one e^(-2 pi i k/M) / sqrt(|A|) per distinct k in K[a, c] =
    (e[a + c] - e[a] - e[c]) mod M, made in row-major order of first
    use, so a conductor error names the entry a row-major build would.
    a + c is read off the group ring's rows, one per pair (a, c)."""
    e, m = mg._derived(_exponents)
    law = mg._derived(_group_ring).table[:, 2].reshape(mg.size, mg.size)
    k = (e[law] - e[:, None] - e[None, :]) % m
    inv_sqrt = sqrt_int(mg.size).inverse()
    return FactoredMatrix.gathered(lambda x: from_angle(Fraction(-x, m)) * inv_sqrt, k)


def _twists(mg: MetricGroup) -> FactoredMatrix:
    """T[a] = e^(2 pi i e[a]/M): one `from_angle` per distinct q-exponent,
    gathered by the exponents."""
    e, m = mg._derived(_exponents)
    return FactoredMatrix.gathered(lambda k: from_angle(Fraction(k, m)), e)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_metric(mg: MetricGroup) -> ValidationReport:
    """Quadratic-form axioms via the Gram presentation.

    q is quadratic iff it agrees with the polynomial built from its
    values on generators (and generator pairs) and that polynomial
    descends to the quotient; nondegeneracy is a radical computation.
    All of it is read off e in integers mod M: g_u has index stride_u
    (0 when n_u = 1), so M q(g_u) = e[g_u] and M b(g_u, g_v) =
    (e[g_u + g_v] - e[g_u] - e[g_v]) mod M, with g_u + g_v at index
    g_u + g_v.  The polynomial is evaluated at every element at once.
    """
    report = ValidationReport("metric group")
    e, m = mg._derived(_exponents)
    zero = tuple(0 for _ in mg.orders)
    report.add("q_zero_at_zero", e[0] == 0, (zero,) if e[0] else None)

    s = len(mg.orders)
    gens = [stride if n > 1 else 0 for n, stride in zip(mg.orders, group_strides(mg.orders))]
    # M q(g_u) and M b(g_u, g_v) = M b(g_v, g_u), as Python integers in [0, M)
    diag = [int(e[g]) for g in gens]
    off = {}
    for u in range(s):
        for v in range(u + 1, s):
            off[u, v] = off[v, u] = int(e[gens[u] + gens[v]] - e[gens[u]] - e[gens[v]]) % m

    where = None
    for u, n in enumerate(mg.orders):
        if n * n * diag[u] % m or 2 * n * diag[u] % m:
            where = (u,)
        else:
            where = next(((u, v) for v in range(s) if v != u and n * off[u, v] % m), None)
        if where:
            break
    report.add("q_descends_to_quotient", where is None, where)

    # M q(a) against a^T G a = sum_u a_u^2 M q(g_u) + sum_{u<v} a_u a_v
    # M b(g_u, g_v), G the upper-triangular Gram matrix; every partial
    # sum is at most M (sum_u (n_u - 1))^2
    coords = _widen(group_coordinates(mg.orders), m * (1 + sum(n - 1 for n in mg.orders)) ** 2)
    gram = np.zeros((s, s), dtype=coords.dtype)
    for u in range(s):
        gram[u, u] = diag[u]
        for v in range(u + 1, s):
            gram[u, v] = off[u, v]
    want = ((gram @ coords) * coords).sum(axis=0)
    wrong = np.flatnonzero(want % m != e)
    report.add("q_is_quadratic", not wrong.size, (mg.elements[wrong[0]],) if wrong.size else None)

    rad = np.flatnonzero(mg._derived(_radical_mask))
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
    come in the order of `mg.elements`.  S, T and the ring are made
    once per group, and every datum made from it shares them.
    """
    if np.count_nonzero(mg._derived(_radical_mask)) != 1:
        raise Degenerate("bilinear form has a nonzero radical")
    return ModularData(
        s=mg._derived(_s_entries), t=mg._derived(_twists), ring=mg._derived(_group_ring)
    )


def matches_modular_data(mg: MetricGroup, md: ModularData) -> bool:
    """Does md equal the data regenerated from mg (labels aside)?

    Compared with mg's tables, without building that data: S and T
    against mg's factored S and T in value, one comparison per pair of
    distinct entries that meet (none when md shares them, as data from
    `metric_modular_data` do), and the ring against mg's group ring by
    `FusionRing.same_fusion` (no work when md shares it).
    """
    if np.count_nonzero(mg._derived(_radical_mask)) != 1:
        return False
    if md.rank != mg.size or md.unit_index != 0:
        return False
    if md.s != mg._derived(_s_entries) or md.t != mg._derived(_twists):
        return False
    return md.ring is None or md.ring.same_fusion(mg._derived(_group_ring))


def lagrangian_candidates(md: ModularData) -> list | None:
    """`obstruction.candidate_search(md)` by the Lagrangian-subgroup
    enumeration, for pointed data with a group ring; None when the
    pointed certificate (`ModularData.pointed_certificate`, the one that
    `validate_modular` reads) fails or r > SUBGROUP_SIZE_CAP, and the
    unhinted `obstruction.verdict` then searches.

    By the certificate, md is the pointed data of a nondegenerate metric
    group (A, q), T_a / T_u = e^(2 pi i q(a)), up to T_u and the labels,
    none of which the search reads.  On these data the search finds
    exactly the indicators of the Lagrangian subgroups H (|H|^2 = |A|,
    q|_H = 0), sorted.  On the
    data of a metric group (`metric_modular_data`) that is the hinted
    order of `lagrangian_answer` reversed (its docstring has the proof).
    S^2 maps a to -a (b is nondegenerate), so its duality is negation.
    As every floor(d_a) = 1, a candidate is the indicator of a set H
    containing u, with |H| = D by the unit row of S n = n, so there is
    none when r is not a square.  For a in H, (S n)_a = 1 sums |H| = D terms
    b(a, h)^(-1) / D of modulus 1/D, so b(a, h) = 1 on H x H.  Then <H>
    is isotropic for b, |<H>|^2 <= |A| = |H|^2 by nondegeneracy, and H
    = <H> is a subgroup with trivial twists.  Conversely, (S 1_H)_a is
    1 for a in H and 0 otherwise, since H = H^perp makes b(a, .) a
    nontrivial character of H, so 1_H passes every condition.  The
    subgroups come from `isotropic_subgroups`, given the isotropic
    labels, u first, and the ring's law among them, all below r <=
    SUBGROUP_SIZE_CAP.
    """
    r, u = md.rank, md.unit_index
    if r > SUBGROUP_SIZE_CAP or not md.pointed_certificate():
        return None
    target = math.isqrt(r)
    if target * target != r:
        return []
    _, _, e = _twist_exponents(md)
    iso = np.flatnonzero(e == 0)
    iso = np.concatenate(([u], iso[iso != u]))  # the unit first: position 0 is the zero
    found = isotropic_subgroups(iso, _ring_law(md.ring, iso), target)
    return sorted(map(tuple, _indicators(found, r).tolist()))


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

    Independent of the S/T route.  The sum g = sum_k count_k zeta_M^k is
    one integer product: the histogram of the q-exponents times the
    power rows of zeta_M (`modular._power_rows`, cached per M).
    `cyclotomic._root_phase` reads the root of unity g / sqrt(|A|) off g
    with rho^2 = |A|.  Its None proves that there is none (a degenerate
    form), and only then is g a `Cyclotomic`, to name the failure: its
    magnitude, or else the root of unity.
    """
    e, m = mg._derived(_exponents)
    rows, norm = _power_rows(m, m)  # refuses a field past TABLE_PHI_CAP first
    # the counts sum to |A|, so no coefficient exceeds |A| norm
    nums = tuple((_widen(np.bincount(e, minlength=m), mg.size * norm) @ rows).tolist())
    phase = _root_phase(m, nums, 1, mg.size)
    if phase is None:
        g = Cyclotomic(m, nums)
        if g * g.conj() != mg.size:
            raise Degenerate("Gauss sum magnitude differs from sqrt(|A|)")
        raise Degenerate("Gauss sum over sqrt(|A|) is not a root of unity")
    return Fraction(8 * phase[0], phase[1])


# ---------------------------------------------------------------------------
# Lagrangian subgroups
# ---------------------------------------------------------------------------


def lagrangian_subgroups(mg: MetricGroup) -> list:
    """All subgroups L with |L|^2 = |A| and q|_L = 0, sorted canonically.

    Grows isotropic subgroups from {0} by cyclic extensions <H, a>, one
    order at a time.  If q|_L = 0 then b(x, y) = q(x + y) - q(x) - q(y)
    = 0 on L, for any q, so only isotropic a with every h + a isotropic
    may extend H, every coset of the closure must be isotropic, and its
    order must divide sqrt(|A|).

    Each subgroup is made once, along its greedy chain over the
    isotropic positions: g_i = min(L \\ H_(i-1)) and H_i = <H_(i-1), g_i>
    from H_0 = {0}.  `_extensions` extends H, made by generator g, by a
    only when a > g and a = min(<H, a> \\ H).  A greedy chain passes:
    g_(i+1) = min(L \\ H_i) >= min(L \\ H_(i-1)) = g_i and g_i is in H_i,
    so g_i < g_(i+1), and g_i, the least of L \\ H_(i-1), is the least of
    H_i \\ H_(i-1).  An accepted chain a_1 < ... < a_r ending at H_r = L is
    the greedy one, by induction from the top: a_r = min(L \\ H_(r-1)),
    and if a_(i+1) = min(L \\ H_i) then L \\ H_(i-1) is (H_i \\ H_(i-1))
    with least a_i joined to L \\ H_i with least a_(i+1) > a_i, so
    a_i = min(L \\ H_(i-1)).  So no subgroup repeats and none is
    deduplicated.  An extension is larger than H, so once every subgroup
    of smaller order is extended, the subgroups of the least pending
    order are all known; they are extended together, in chunks
    (`_extensions`).  That loop is `isotropic_subgroups`, which
    `lagrangian_candidates` also runs on pointed data.  Capped at
    |A| = SUBGROUP_SIZE_CAP, and refused with SizeLimit once the pending
    and found subgroups hold more than HELD_POSITIONS_CAP positions.
    """
    elements = mg.elements
    return [tuple(elements[i] for i in row) for row in _lagrangian_rows(mg).tolist()]


def lagrangian_answer(mg: MetricGroup) -> tuple[tuple, tuple]:
    """(subgroups, indicators): `lagrangian_subgroups(mg)` and the
    indicator of each over the element indices, in the same order, as
    `subgroup_indicator` gives it; the indicators are one int8 scatter.
    The exact answer of `obstruction.verdict` from a pointed hint.

    The indicators run in decreasing lexicographic order, the reverse of
    the sorted candidates of `lagrangian_candidates` and of the search.
    Take subgroups A != B whose sorted index rows first differ at
    position p with a_p < b_p, A first.  The labels of A below a_p are
    its first p, which B holds too; B has no other label below a_p, and
    not a_p.  So 1_A and 1_B agree below a_p, and 1_A > 1_B there."""
    rows = _lagrangian_rows(mg)
    elements = mg.elements
    subgroups = tuple(tuple(elements[i] for i in row) for row in rows.tolist())
    return subgroups, tuple(map(tuple, _indicators(rows, mg.size).tolist()))


def _lagrangian_rows(mg: MetricGroup) -> np.ndarray:
    """The Lagrangian subgroups as element indices, one sorted row per
    subgroup, the rows in lexicographic order (`np.lexsort`).  Index
    order is the lexicographic order of element tuples (mixed radix,
    row-major), so this is the canonical order of `lagrangian_subgroups`."""
    n = mg.size
    if n > SUBGROUP_SIZE_CAP:
        raise SizeLimit(f"|A| = {n} exceeds the subgroup enumeration cap {SUBGROUP_SIZE_CAP}")
    target = math.isqrt(n)
    none = np.empty((0, target), dtype=np.intp)
    if target * target != n:
        return none
    e, _ = mg._derived(_exponents)
    if e[0]:
        return none
    iso = np.flatnonzero(e == 0)
    # the law among the isotropic elements alone: |iso|^2 int16 labels
    rows = np.sort(isotropic_subgroups(iso, group_law(mg.orders, iso, np.int16), target), axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def _indicators(rows: np.ndarray, size: int) -> np.ndarray:
    """One int8 row of length size per row of labels: 1 at its labels."""
    flags = np.zeros((len(rows), size), dtype=np.int8)
    flags[np.arange(len(rows))[:, None], rows] = 1
    return flags


def isotropic_subgroups(iso: np.ndarray, law: np.ndarray, target: int) -> np.ndarray:
    """The subgroups of order target whose elements all lie in iso, as a
    (count, target) array of labels, each row unsorted: the enumeration
    of `lagrangian_subgroups` and of `lagrangian_candidates`.

    iso holds the isotropic labels, the identity first, and law[i, j] is
    the label of iso[i] + iso[j].  Labels lie below target^2 <=
    SUBGROUP_SIZE_CAP (`lagrangian_subgroups` and `lagrangian_candidates`
    check it), so positions fit int16.
    Subgroups grow one order at a time from {position 0}, each along its
    greedy chain (`lagrangian_subgroups` has the proof); SizeLimit once the
    pending and found subgroups hold over HELD_POSITIONS_CAP positions.
    """
    # sums[i, j]: the position in iso of iso[i] + iso[j], -1 outside iso
    position = np.full(target * target, -1, dtype=np.int16)
    position[iso] = np.arange(len(iso))
    sums = position[law]
    # pending[order]: (rows, gens) pairs, one row of isotropic positions
    # per subgroup of that order and the generator that made it; {0} is
    # position 0, made by position 0
    pending = {1: [(np.zeros((1, 1), dtype=sums.dtype), np.zeros(1, dtype=sums.dtype))]}
    found = np.empty((0, target), dtype=sums.dtype)
    held = 1  # positions pending or found; an order counts until extended
    while pending:
        size = min(pending)
        entries = pending.pop(size)
        subgroups = np.concatenate([rows for rows, _ in entries])
        if size == target:
            found = subgroups
            continue
        last = np.concatenate([gens for _, gens in entries])
        step = _block_step(size * len(sums), 2)  # int16 positions
        for start in range(0, len(subgroups), step):
            chunk = slice(start, start + step)
            for order, rows, gens in _extensions(subgroups[chunk], last[chunk], sums, target):
                held += rows.size
                if held > HELD_POSITIONS_CAP:
                    raise SizeLimit(
                        f"the subgroup enumeration of |A| = {target * target} holds more "
                        f"than {HELD_POSITIONS_CAP} subgroup positions"
                    )
                pending.setdefault(order, []).append((rows, gens))
        held -= subgroups.size
    return iso[found]


def _extensions(h: np.ndarray, last: np.ndarray, sums: np.ndarray, target: int) -> list:
    """[(order, rows, gens)]: the subgroups <H, a> of a batch of
    subgroups H that extend H's greedy chain, with every element
    isotropic and order dividing target; one row of positions per
    subgroup, and gens[i] the a that made row i.

    h is a (B, |H|) array of isotropic positions and last the generator
    that made each H.  least[H, x] is the least position of the coset
    x + H, -1 when some h + x is not isotropic, so it answers every test:
    a is tried when a > last and least[H, a] = a; then each coset
    k a + H in turn, k >= 2, is H itself when its least position is 0
    (k a is in H), and refuses a when its least position is -1 or
    below a, since then a != min(<H, a> \\ H).  Rows are gathered for
    the accepted pairs only, coset by coset, unsorted.
    """
    size = h.shape[1]
    n = len(sums)
    # a last column of -1 is what a multiple that is not isotropic (-1
    # in sums) reads, so it is refused with the rest
    least = np.full((len(h), n + 1), -1, dtype=sums.dtype)
    np.min(sums[h], axis=1, out=least[:, :n])
    positions = np.arange(n)
    which, a = np.nonzero((least[:, :n] == positions) & (positions > last[:, None]))
    # one entry per pair (H, a): multiples[k - 1] = k a, of the coset k a + H
    multiples = [a]
    order = np.zeros(len(a), dtype=np.int64)  # 0 growing, -1 refused
    shift = sums[a, a]  # 2a
    while True:
        low = least[which, shift]
        growing = order == 0
        order[growing & (low == 0)] = len(multiples) + 1
        order[growing & (low != 0) & (low < a)] = -1
        growing = order == 0
        if not growing.any():
            break
        if size * (len(multiples) + 2) > target:
            order[growing] = -1
            break
        multiples.append(shift)
        shift = sums[shift, a]
    out = []
    for k in set(order[order > 0].tolist()):
        if target % (size * k) == 0:
            pairs = np.flatnonzero(order == k)
            rows = h[which[pairs]]
            cosets = [rows] + [sums[rows, m[pairs, None]] for m in multiples[: k - 1]]
            out.append((size * k, np.concatenate(cosets, axis=1), a[pairs].astype(sums.dtype)))
    return out


def subgroup_indicator(mg: MetricGroup, subgroup) -> tuple:
    flags = [0] * mg.size
    for a in subgroup:
        flags[mg.index(a)] = 1
    return tuple(flags)
