"""Shared generators for the test suite."""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np

from mtcbound.cyclotomic import (
    ZERO,
    Cyclotomic,
    _embed_nums,
    _lcm,
    _power_row,
    _root_row,
    cyc_sum,
    cyclotomic_polynomial,
    euler_phi,
    from_angle,
    rational,
    sqrt_int,
    zeta,
)
from mtcbound.errors import (
    AmbiguousBlock,
    Degenerate,
    GaussIdentityFailure,
    InputError,
    NonIntegralVerlinde,
    NonModular,
    NotRootOfUnity,
    NumericError,
    SearchBudgetExceeded,
    SizeLimit,
)
from mtcbound import modular
from mtcbound.fusion import (
    _REAL_TOLERANCE,
    FusionRing,
    _exponent_array,
    _label_blocks,
    _max_abs,
    _scan_rows,
    _settle,
    _table_of,
    _widen,
    first_difference,
    group_law,
    ring_product,
)
from mtcbound.modular import (
    _PRODUCT_TABLE_CAP,
    FactoredMatrix,
    ModularData,
    PackedMatrix,
    _axiom_checks,
    _balancing_sides,
    _conv_entrywise,
    _gauss_sum,
    _linear,
    _power_rows,
    _power_table,
    _reduction_table,
    _value_ids,
    gauss_sums,
    ring_from_verlinde,
    verlinde_table,
)
from mtcbound.multifusion import BlockDecomposition
from mtcbound.obstruction import ObstructionReport, central_charge_gate, search_budget
from mtcbound.pointed import (
    SUBGROUP_SIZE_CAP,
    MetricGroup,
    _exponents,
    _radical_mask,
    _s_entries,
    _twists,
    lagrangian_subgroups,
    matches_modular_data,
    subgroup_indicator,
    validate_metric,
)
from mtcbound.report import CheckResult, ValidationReport

_FACTOR_CHOICES = (2, 3, 4, 5, 6, 7, 8, 9, 16, 25)


def random_metric_group(rng: random.Random, max_size: int = 64) -> MetricGroup:
    """A random nondegenerate metric group with |A| <= max_size.

    Quadratic forms are drawn through their Gram presentation: diagonal
    values q(e_u) = c_u / 2n_u with n_u c_u even, off-diagonal pair
    values b_uv / gcd(n_u, n_v).  Every such table is a well-defined
    quadratic form, so rejection only happens on degeneracy.
    """
    while True:
        n_factors = rng.randint(1, 3)
        orders = []
        size = 1
        for _ in range(n_factors):
            n = rng.choice(_FACTOR_CHOICES)
            if size * n > max_size:
                continue
            orders.append(n)
            size *= n
        if not orders:
            continue
        orders = tuple(orders)
        s = len(orders)

        diag = []
        for n in orders:
            c = rng.randrange(2 * n)
            if n % 2 == 1 and c % 2 == 1:
                c = (c + 1) % (2 * n)
            diag.append(Fraction(c, 2 * n))
        off = {}
        for u in range(s):
            for v in range(u + 1, s):
                g = gcd(orders[u], orders[v])
                off[(u, v)] = Fraction(rng.randrange(g), g)

        q = {}
        for a in product(*(range(n) for n in orders)):
            val = sum((a[u] * a[u] * diag[u] for u in range(s)), Fraction(0))
            val += sum(
                (a[u] * a[v] * off[(u, v)] for u in range(s) for v in range(u + 1, s)),
                Fraction(0),
            )
            q[a] = val % 1
        mg = MetricGroup(orders=orders, q=q)
        if len(mg.radical()) == 1:
            return mg


def seeded_triple_double_semion(rng: random.Random, base: MetricGroup) -> MetricGroup:
    """The orthogonal sum of three copies of `base` (the double semion
    on Z2 x Z2) on Z2^6, in a seeded random basis: q'(x) = q(M x) for a
    random invertible M over GF(2)."""
    while True:
        m = [[rng.randrange(2) for _ in range(6)] for _ in range(6)]
        if round(abs(np.linalg.det(np.array(m)))) % 2:  # invertible mod 2
            break
    q = {}
    for x in product(range(2), repeat=6):
        y = [sum(a * b for a, b in zip(row, x)) % 2 for row in m]
        q[x] = sum((base.q[(y[2 * i], y[2 * i + 1])] for i in range(3)), Fraction(0)) % 1
    return MetricGroup(orders=(2,) * 6, q=q)


def brute_force_lagrangians(mg: MetricGroup) -> list:
    """Independent oracle: try every subset of size sqrt(|A|)."""
    from itertools import combinations
    from math import isqrt

    n = mg.size
    root = isqrt(n)
    if root * root != n:
        return []
    zero = tuple(0 for _ in mg.orders)
    out = []
    rest = [a for a in mg.elements if a != zero]
    for combo in combinations(rest, root - 1):
        subset = set(combo) | {zero}
        if any(mg.qval(a) != 0 for a in subset):
            continue
        if any(mg.add(a, b) not in subset for a in subset for b in subset):
            continue
        out.append(tuple(sorted(subset)))
    return sorted(out)


# ---------------------------------------------------------------------------
# tuple-and-Fraction reference routes for the metric-group layer
# ---------------------------------------------------------------------------


def closure_growth_lagrangians(mg: MetricGroup) -> list:
    """All subgroups L with |L|^2 = |A| and q|_L = 0, sorted canonically.

    Closure growth over the isotropic elements with tuple `mg.add`,
    following lexicographic canonical generating chains; capped at
    |A| = SUBGROUP_SIZE_CAP.  The route `lagrangian_subgroups` took
    before it ran on element indices.
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


def per_subgroup_lagrangians(mg: MetricGroup) -> list:
    """`lagrangian_subgroups` extending one subgroup at a time: a
    depth-first walk from {0} with a `tobytes` set of the subgroups
    seen, one `per_subgroup_extensions` call per subgroup.  The route
    before subgroups were extended one order at a time."""
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
    position = np.full(n, -1, dtype=np.int16)
    position[iso] = np.arange(len(iso))
    sums = position[group_law(mg.orders, iso, np.int16)]
    root = np.zeros(1, dtype=sums.dtype)  # {0}; zero is isotropic position 0
    seen = {root.tobytes()}
    stack = [root]
    found = []
    while stack:
        h = stack.pop()
        if len(h) == target:
            found.append(h)
            continue
        for rows in per_subgroup_extensions(h, sums, target):
            for row in rows:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    stack.append(row)
    elements = mg.elements
    return sorted(tuple(elements[i] for i in iso[l].tolist()) for l in found)


def per_subgroup_extensions(h: np.ndarray, sums: np.ndarray, target: int) -> list:
    """The subgroups <H, a> of one subgroup H (a sorted array of
    isotropic positions) with every element isotropic and order dividing
    target, as arrays whose rows are sorted positions; one row per
    representative a of a coset a + H, so a subgroup may repeat."""
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


def order_batched_lagrangians(mg: MetricGroup, gather_entries: int = 2**20) -> list:
    """`lagrangian_subgroups` one order at a time with one row per
    (subgroup, coset representative) pair, so a subgroup is made once per
    pair: all subgroups of the least pending order are deduplicated by one
    lexicographic sort (`distinct_rows`) and extended together in chunks
    of at most gather_entries entries of sums[H].  The route before each
    subgroup was made once, along its greedy generator chain."""
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
    position = np.full(n, -1, dtype=np.int16)
    position[iso] = np.arange(len(iso))
    sums = position[group_law(mg.orders, iso, np.int16)]
    pending = {1: [np.zeros((1, 1), dtype=sums.dtype)]}
    found = np.empty((0, target), dtype=sums.dtype)
    while pending:
        size = min(pending)
        subgroups = distinct_rows(np.concatenate(pending.pop(size)))
        if size == target:
            found = subgroups
            continue
        step = max(1, gather_entries // (size * len(sums)))
        for start in range(0, len(subgroups), step):
            chunk = subgroups[start : start + step]
            for order, rows in order_batched_extensions(chunk, sums, target):
                pending.setdefault(order, []).append(distinct_rows(rows))
    elements = mg.elements
    return sorted(tuple(elements[i] for i in iso[l].tolist()) for l in found)


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array, in lexicographic order: one
    `np.lexsort` and a comparison of neighbours."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def order_batched_extensions(h: np.ndarray, sums: np.ndarray, target: int) -> list:
    """[(order, rows)]: the subgroups <H, a> of a batch of subgroups H
    (a (B, |H|) array of sorted isotropic positions) with every element
    isotropic and order dividing target, as arrays whose rows are sorted
    positions; one row per H and representative a of a coset a + H, so a
    subgroup may repeat.  a qualifies when every h + a is isotropic and a
    is the least position of a + H; a (B, width) `inside` table answers
    k a in H."""
    count, size = h.shape
    width = len(sums)
    inside = np.zeros((count, width), dtype=bool)
    inside[np.arange(count)[:, None], h] = True
    least = sums[h].min(axis=1)
    which, a = np.nonzero((least == np.arange(width)) & ~inside)
    # one row per pair (H, a): blocks[k] holds the coset H + k a
    base = h[which]
    blocks = [base, sums[base, a[:, None]]]
    order = np.zeros(len(a), dtype=np.int64)  # 0 growing, -1 refused
    shift = sums[a, a]  # 2a
    while True:
        growing = order == 0
        isotropic = shift >= 0
        shift = np.where(isotropic, shift, 0)
        order[growing & ~isotropic] = -1
        order[growing & isotropic & inside[which, shift]] = len(blocks)
        growing = order == 0
        if not growing.any():
            break
        if size * (len(blocks) + 1) > target:
            order[growing] = -1
            break
        coset = sums[base, np.where(growing, shift, 0)[:, None]]
        order[growing & (coset < 0).any(axis=1)] = -1
        blocks.append(coset)
        shift = sums[shift, a]
    out = []
    for k in set(order[order > 0].tolist()):
        if target % (size * k) == 0:
            pairs = np.flatnonzero(order == k)
            group = np.concatenate([block[pairs] for block in blocks[:k]], axis=1)
            out.append((size * k, np.sort(group, axis=1)))
    return out


def isotropic_subgroup_counts(mg: MetricGroup) -> dict:
    """{order: count} over every subgroup H with q|_H = 0 and |H| > 1
    dividing sqrt(|A|): every known subgroup closed with every isotropic
    element outside it by tuple `mg.add`, kept in a set of frozensets.
    A subgroup of such an H has an order dividing sqrt(|A|) too, so no
    subgroup is missed by stopping at the others."""
    target = math.isqrt(mg.size)
    zero = tuple(0 for _ in mg.orders)
    iso = [a for a in mg.elements if mg.qval(a) == 0]
    if target * target != mg.size or zero not in iso:
        return {}
    known = {frozenset([zero])}
    frontier = list(known)
    while frontier:
        grown = []
        for h in frontier:
            for a in iso:
                if a in h:
                    continue
                new, shift = set(h), a
                while shift not in h:
                    new.update(mg.add(c, shift) for c in h)
                    shift = mg.add(shift, a)
                key = frozenset(new)
                if target % len(key) or key in known or any(mg.qval(x) for x in key):
                    continue
                known.add(key)
                grown.append(key)
        frontier = grown
    counts: dict = {}
    for h in known:
        if len(h) > 1:
            counts[len(h)] = counts.get(len(h), 0) + 1
    return counts


def fraction_generators(mg: MetricGroup) -> list:
    """Canonical generators of the cyclic factors, reduced mod orders."""
    return [
        tuple(1 % n if u == v else 0 for v, n in enumerate(mg.orders))
        for u in range(len(mg.orders))
    ]


def fraction_radical(mg: MetricGroup) -> list:
    """Elements pairing trivially with every generator, by `Fraction`s:
    b(a, g) = (q(a + g) - q(a) - q(g)) mod 1."""
    q, gens = mg.qval, fraction_generators(mg)
    return [a for a in mg.elements if all((q(mg.add(a, g)) - q(a) - q(g)) % 1 == 0 for g in gens)]


def fraction_validate_metric(mg: MetricGroup) -> ValidationReport:
    """`validate_metric` with one `Fraction` polynomial per element."""
    report = ValidationReport("metric group")
    zero = tuple(0 for _ in mg.orders)
    report.add("q_zero_at_zero", mg.qval(zero) == 0, (zero,) if mg.qval(zero) else None)

    s = len(mg.orders)
    gens = fraction_generators(mg)
    diag = [mg.qval(g) for g in gens]
    off = {}
    for u in range(s):
        for v in range(u + 1, s):
            g, h = gens[u], gens[v]
            off[(u, v)] = (mg.qval(mg.add(g, h)) - mg.qval(g) - mg.qval(h)) % 1

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

    rad = fraction_radical(mg)
    report.add(
        "nondegenerate",
        len(rad) == 1,
        None if len(rad) == 1 else (rad[1] if len(rad) > 1 else None,),
    )
    return report


def per_element_milgram_signature(mg: MetricGroup) -> Fraction:
    """`milgram_signature` adding one `from_angle` per element, read off
    by the mpmath-guided `mpmath_root_of_unity`."""
    g = cyc_sum(from_angle(mg.qval(a)) for a in mg.elements)
    if g * g.conj() != mg.size:
        raise Degenerate("Gauss sum magnitude differs from sqrt(|A|)")
    root = mpmath_root_of_unity(g * sqrt_int(mg.size) / mg.size)
    if root is None:
        raise Degenerate("Gauss sum over sqrt(|A|) is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


def histogram_milgram_signature(mg: MetricGroup) -> Fraction:
    """`milgram_signature` adding one `from_angle` per distinct
    q-exponent, times its count, as `Cyclotomic` additions."""
    e, m = mg._derived(_exponents)
    exponents, counts = np.unique(e, return_counts=True)
    g = cyc_sum(
        from_angle(Fraction(k, m)) * count
        for k, count in zip(exponents.tolist(), counts.tolist())
    )
    if g * g.conj() != mg.size:
        raise Degenerate("Gauss sum magnitude differs from sqrt(|A|)")
    root = (g * sqrt_int(mg.size) / mg.size).as_root_of_unity()
    if root is None:
        raise Degenerate("Gauss sum over sqrt(|A|) is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


# ---------------------------------------------------------------------------
# entry-by-entry reference route for pointed modular data
# ---------------------------------------------------------------------------


def metric_neg(mg: MetricGroup, a: tuple) -> tuple:
    """-a in the group of mg."""
    return tuple((-x) % n for x, n in zip(a, mg.orders))


def per_entry_metric_modular_data(mg: MetricGroup) -> ModularData:
    """Pointed modular data built one entry at a time: S[a][b] from the
    `Fraction` pairing (q(a + b) - q(a) - q(b)) mod 1, the ring from
    `mg.add`."""
    if len(fraction_radical(mg)) != 1:
        raise Degenerate("bilinear form has a nonzero radical")
    n = mg.size
    elements = mg.elements
    inv_sqrt = sqrt_int(n).inverse()
    q = mg.qval
    s = tuple(
        tuple(from_angle(-((q(mg.add(a, b)) - q(a) - q(b)) % 1)) * inv_sqrt for b in elements)
        for a in elements
    )
    t = tuple(from_angle(q(a)) for a in elements)
    labels = tuple(",".join(map(str, a)) if a else "0" for a in elements)
    index = mg.index
    fusion = {
        (index(a), index(b), index(mg.add(a, b))): 1
        for a in elements
        for b in elements
    }
    zero = tuple(0 for _ in mg.orders)
    ring = FusionRing(
        labels=labels,
        unit=(index(zero),),
        dual=tuple(index(metric_neg(mg, a)) for a in elements),
        fusion=fusion,
    )
    return ModularData(s=s, t=t, unit_index=index(zero), ring=ring)


def law_matches_modular_data(mg: MetricGroup, md: ModularData) -> bool:
    """`matches_modular_data` checking the ring against a group law
    table built from `mg.add`: every fusion row is [a, c, a + c, 1],
    the dual is a -> -a (found as the c with a + c = 0), the unit is 0."""
    if np.count_nonzero(_radical_mask(mg)) != 1:
        return False
    n = mg.size
    if md.rank != n or md.unit_index != 0:
        return False
    if md.s != mg._derived(_s_entries) or md.t != mg._derived(_twists):
        return False
    ring = md.ring
    if ring is None:
        return True
    elements = mg.elements
    law = np.array([[mg.index(mg.add(a, c)) for c in elements] for a in elements])
    if ring.unit != (0,) or ring.dual != tuple(np.argmax(law == 0, axis=1).tolist()):
        return False
    table = ring.table
    if len(table) != n * n or not (table[:, 3] == 1).all():
        return False
    # n^2 distinct keys, each (a, c, a + c), name every pair (a, c) once
    keys = ring.indices()
    return bool((law[keys[:, 0], keys[:, 1]] == keys[:, 2]).all())


# ---------------------------------------------------------------------------
# object-per-entry reference routes for the packed matrix layer
# ---------------------------------------------------------------------------


def per_entry_pack(rows) -> PackedMatrix:
    """`FactoredMatrix.of(rows).packed()` with every entry embedded and
    scaled on its own."""
    conductor = 1
    for row in rows:
        for e in row:
            conductor = _lcm(conductor, e.conductor)
    den = 1
    for row in rows:
        for e in row:
            den = _lcm(den, e.den)
    nums = [
        [
            [v * (den // e.den) for v in _embed_nums(e.nums, e.conductor, conductor)]
            for e in row
        ]
        for row in rows
    ]
    return PackedMatrix(conductor, _settle(np.array(nums, dtype=object)), den)



def row_pack(rows) -> PackedMatrix:
    """`FactoredMatrix.of(rows).packed()` as it was before S was held
    factored: one dictionary slot per distinct (conductor, nums, den),
    looked up entry by entry, and the embedded table gathered by the
    nested index."""
    slots: dict = {}
    index = [
        [slots.setdefault((e.conductor, e.nums, e.den), len(slots)) for e in row]
        for row in rows
    ]
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


# ---------------------------------------------------------------------------
# entry-by-entry reference routes for the constructions
# ---------------------------------------------------------------------------


def per_entry_reverse(md: ModularData) -> ModularData:
    """`reverse` with every entry of S conjugated on its own, and T
    conjugated label by label as a tuple."""
    s = tuple(tuple(e.conj() for e in row) for row in md.s)
    t = tuple(e.conj() for e in md.t)
    return ModularData(s=s, t=t, unit_index=md.unit_index, ring=md.ring)


def per_entry_box_tensor(a: ModularData, b: ModularData) -> ModularData:
    """`box_tensor` entry by entry: S[(i, x), (j, y)] = S_a[i][j] S_b[x][y]
    for every entry, indexed by the labels.  The scalar products are
    memoised on the operands' (conductor, nums, den), so a rank-289 S
    costs seconds less; which operands meet at an entry is still read
    off the rows, not off slots.  T is a tuple of one product per pair
    of labels."""
    a_rows, b_rows = tuple(a.s), tuple(b.s)
    rb = b.rank
    products: dict = {}

    def times(x: Cyclotomic, y: Cyclotomic) -> Cyclotomic:
        pair = ((x.conductor, x.nums, x.den), (y.conductor, y.nums, y.den))
        if pair not in products:
            products[pair] = x * y
        return products[pair]

    s = tuple(
        tuple(times(a_rows[i][j], b_rows[x][y]) for j in range(a.rank) for y in range(rb))
        for i in range(a.rank)
        for x in range(rb)
    )
    a_t, b_t = tuple(a.t), tuple(b.t)
    t = tuple(a_t[i] * b_t[x] for i in range(a.rank) for x in range(rb))
    ring = None
    if a.ring is not None and b.ring is not None:
        ring = ring_product(a.ring, b.ring)
    return ModularData(s=s, t=t, unit_index=a.unit_index * rb + b.unit_index, ring=ring)


def at_twice(x: Cyclotomic) -> Cyclotomic:
    """x over twice its conductor (a rational stays at conductor 1)."""
    return x.embed(2 * x.conductor)


def mixed(md: ModularData) -> ModularData:
    """The lower triangle of S and the odd labels' twists at twice their
    conductor: the same values in other slots."""
    s = [[at_twice(x) if i > j else x for j, x in enumerate(row)] for i, row in enumerate(md.s)]
    t = [at_twice(x) if i % 2 else x for i, x in enumerate(md.t)]
    return ModularData(s=s, t=t, unit_index=md.unit_index, ring=md.ring)


def relabelled(md: ModularData, perm: list) -> ModularData:
    """The same data with new label k standing for old label perm[k]."""
    inv = [0] * len(perm)
    for k, old in enumerate(perm):
        inv[old] = k
    rows = tuple(md.s)
    s = tuple(tuple(rows[a][b] for b in perm) for a in perm)
    t = tuple(md.t[a] for a in perm)
    ring = None
    if md.ring is not None:
        old = md.ring
        ring = FusionRing(
            labels=tuple(old.labels[a] for a in perm),
            unit=tuple(inv[u] for u in old.unit),
            dual=tuple(inv[old.dual[a]] for a in perm),
            fusion={(inv[i], inv[j], inv[k]): v for (i, j, k), v in old.fusion.items()},
        )
    return ModularData(s=s, t=t, unit_index=inv[md.unit_index], ring=ring)


def object_matmul(a, b):
    """Matrix product over Q(zeta_N), one Cyclotomic operation per term."""
    out = []
    for arow in a:
        orow = []
        for j in range(len(b[0])):
            acc = ZERO
            for m, av in enumerate(arow):
                if not av.is_zero() and not b[m][j].is_zero():
                    acc = acc + av * b[m][j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def object_scale_columns(a, diag):
    return tuple(tuple(v * diag[j] for j, v in enumerate(row)) for row in a)


def object_verlinde(md) -> dict:
    """N_ij^k = sum_m S_im S_jm conj(S_km) / S_um, entry by entry."""
    r = md.rank
    s = md.s
    inv_unit_row = [s[md.unit_index][m].inverse() for m in range(r)]
    conj_s = [[s[k][m].conj() for m in range(r)] for k in range(r)]
    out: dict = {}
    for i in range(r):
        for j in range(r):
            weights = [s[i][m] * s[j][m] * inv_unit_row[m] for m in range(r)]
            for k in range(r):
                acc = ZERO
                for m in range(r):
                    acc = acc + weights[m] * conj_s[k][m]
                val = acc.as_rational()
                if val is None or val.denominator != 1 or val < 0:
                    raise NonIntegralVerlinde(f"N[{i},{j},{k}] = {acc}")
                if val:
                    out[(i, j, k)] = int(val)
    return out


# ---------------------------------------------------------------------------
# label-by-label reference routes for the scalar invariants
# ---------------------------------------------------------------------------


def per_label_dims_and_twists(md: ModularData) -> tuple:
    """(d_i, theta_i) for every label, one product per label."""
    d_inv = md.s_unit.inverse()
    t_inv = md.t[md.unit_index].inverse()
    return (
        tuple(x * d_inv for x in md.s[md.unit_index]),
        tuple(v * t_inv for v in md.t),
    )


def per_label_taus(md: ModularData) -> tuple:
    """(tau+, tau-) summed one label at a time, with nothing cached."""
    dims, theta = per_label_dims_and_twists(md)
    tau_plus = ZERO
    tau_minus = ZERO
    for d, th in zip(dims, theta):
        d2 = d * d
        tau_plus = tau_plus + d2 * th
        tau_minus = tau_minus + d2 * th.inverse()
    return tau_plus, tau_minus


def per_label_gauss_sums(md: ModularData) -> tuple:
    """`gauss_sums` from the label-by-label sums."""
    tau_plus, tau_minus = per_label_taus(md)
    total = md.s_unit.inverse()
    if tau_plus * tau_minus != total * total:
        raise GaussIdentityFailure("tau+ tau- differs from D^2")
    return tau_plus, tau_minus, total


def per_label_central_charge(md: ModularData) -> Fraction:
    """`central_charge` from the label-by-label tau+."""
    u = per_label_taus(md)[0] * md.s_unit  # tau+ / D
    root = u.as_root_of_unity()
    if root is None:
        raise NotRootOfUnity(f"tau+/D = {u} is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


def full_route_validate_modular(md: ModularData) -> ValidationReport:
    """`validate_modular` without the pointed certificate, its checks run
    one by one (`modular._axiom_checks`), and with `theta_normalized`,
    `balancing`, `gauss_identity`, `verlinde_integral` and
    `verlinde_matches_ring` always decided by the full routes that
    ring-less data take: theta_u = T_u / T_u against 1, (S T)^3 against
    (tau+/D) S^2, tau+ tau- against D^2, and `verlinde_table` against
    the declared ring.  The oracle of the pointed certificate
    (`modular._pointed_certificate`), which passes every check at once,
    and of the ring route (`modular._ring_equations`), which decides
    balancing and the Gauss identity together; the other checks are
    copied from `_axiom_checks`."""
    checks = []
    table = None
    for check in _axiom_checks(md).checks:
        if check.name == "theta_normalized" and check.ok:
            check = CheckResult("theta_normalized", md.theta()[md.unit_index] == 1)
        elif check.name == "balancing" and check.detail != "twists unavailable":
            lhs, rhs = _balancing_sides(md, md.theta(), _gauss_sum(md, 1) * md.s_unit)
            mismatch = np.argwhere(~lhs.entries_equal(rhs))
            where = tuple(int(x) for x in mismatch[0]) if len(mismatch) else None
            check = CheckResult("balancing", where is None, where)
        elif check.name == "gauss_identity" and check.detail != "twists unavailable":
            zero = next((i for i, x in enumerate(md.theta()) if x.is_zero()), None)
            if zero is None:
                total = md.total_dim()
                ok = _gauss_sum(md, 1) * _gauss_sum(md, -1) == total * total
                check = CheckResult("gauss_identity", ok)
            else:
                detail = f"theta_{zero} = 0, tau- undefined"
                check = CheckResult("gauss_identity", False, (zero,), detail)
        elif check.name == "verlinde_integral":
            try:
                table = verlinde_table(md)
            except (NonIntegralVerlinde, NonModular) as exc:
                check = CheckResult("verlinde_integral", False, None, str(exc))
            else:
                check = CheckResult("verlinde_integral", True)
        elif check.name == "verlinde_matches_ring":
            if table is None:
                check = CheckResult("verlinde_matches_ring", False, None, "verlinde unavailable")
            else:
                where = first_difference(md.ring, table)
                check = CheckResult("verlinde_matches_ring", where is None, where)
        checks.append(check)
    return ValidationReport("modular data", checks)


def two_pass_ring_equations(md: ModularData, order: int, exponents: np.ndarray) -> tuple:
    """`modular._ring_equations` as two passes over the ring table: every
    block of (V), then every block of (B), each with its own gathers,
    sums and scatter.  The block budget and the table cap are read from
    `modular` at call time.  The oracle of the fused pass."""
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

    first, pair_j, k = ring.indices().T
    counts = ring.table[:, 3]
    pairs = first * r + pair_j
    heads = np.flatnonzero(np.concatenate(([True], pairs[1:] != pairs[:-1])))
    by_first = first.searchsorted(np.arange(r + 1))
    top = int(np.add.reduceat(counts, heads).max()) if len(counts) else 0

    def sums(terms, start, stop):
        lo, hi = by_first[start], by_first[stop]
        out = np.zeros(((stop - start) * r,) + terms.shape[1:], dtype=terms.dtype)
        block = heads[heads.searchsorted(lo) : heads.searchsorted(hi)]
        if len(block) < hi - lo:
            terms = np.add.reduceat(terms, block - lo)
        out[pairs[block] - start * r] = terms
        return out

    # (V), from the products of every two distinct S entries
    if e * e * (2 * phi - 1) > modular._PRODUCT_TABLE_CAP:
        return False, False
    products = _linear(_conv_entrywise(entries[:, None], entries[None]), _reduction_table(n))
    products = _widen(products, top * _max_abs(products))
    unit_row = slots[u]
    made = by_first + np.arange(r + 1) * r
    for start, stop in _label_blocks(made * (r * phi), 8):
        lo, hi = by_first[start], by_first[stop]
        left = sums(products[unit_row, slots[k[lo:hi]]] * counts[lo:hi, None, None], start, stop)
        right = products[slots[start:stop, None], slots[None]]
        if not (left.reshape(right.shape) == right).all():
            return False, False

    # (B): theta_a* theta_j S_a*j at row (a, j) on the left
    c = math.lcm(order, n)
    t = exponents * (c // order)
    codes = np.append((slots * c + (t[:, None] + t) % c)[dual], unit_row * c + t)
    used, index = np.unique(codes, return_inverse=True)
    if len(used) * c > modular._PRODUCT_TABLE_CAP:
        return True, False
    slot, shift = np.divmod(used, c)
    spread = np.zeros((len(used), c), dtype=entries.dtype)
    places = (np.arange(phi) * (c // n) + shift[:, None]) % c
    spread[np.arange(len(used))[:, None], places] = entries[slot]
    rotated = _linear(spread, _power_rows(c, c))
    rotated = _widen(rotated, top * _max_abs(rotated))
    lhs, rhs = index[: r * r].reshape(r, r), index[r * r :]
    for start, stop in _label_blocks(made * rotated.shape[1], 8):
        lo, hi = by_first[start], by_first[stop]
        right = sums(rotated[rhs[k[lo:hi]]] * counts[lo:hi, None], start, stop)
        if not (rotated[lhs[start:stop]].reshape(right.shape) == right).all():
            return True, False
    return True, True


def distinct_products(n: int, factors: tuple, slots: tuple) -> tuple:
    """(nums, index): the product of factors[f][slots[f][x]] over f, as
    power-basis numerators over Q(zeta_n) whose denominator is the
    product of the factors' denominators, is nums[index[x]].  Each factor
    is an integer array (entries, phi(n)) and each slot array is 1-D.
    One product is formed per distinct combination of slots."""
    code = np.zeros(len(slots[0]), dtype=np.int64)
    for factor, s in zip(factors, slots):
        code = code * len(factor) + s
    used, index = np.unique(code, return_inverse=True)
    digits = []
    for factor in reversed(factors):
        digits.append(used % len(factor))
        used = used // len(factor)
    nums = None
    for factor, digit in zip(factors, reversed(digits)):
        term = factor[digit]
        nums = term if nums is None else _linear(_conv_entrywise(nums, term), _reduction_table(n))
    return nums, index.reshape(-1)


def triple_product_balancing(md: ModularData) -> bool:
    """Check (B) of `modular._ring_equations` in its T form, T_i T_j S_ij
    = T_u sum_k N_i*j^k T_k S_uk for all i, j, by triple products: one
    product per distinct (T, T, S) slot triple over Q(zeta_c), c the
    datum's conductor, and N times the right-hand terms of the ring's
    rows (a, j, k) summed into (a*, j) on Python integers.  Needs a
    declared ring; the oracle of the twist-exponent form."""
    ring = md.ring
    r, u = md.rank, md.unit_index
    c = md.conductor()
    slots = md.s.slots.astype(np.intp)
    t = md.t.slots.astype(np.intp)
    t_entries = md.t.table().embed(c).nums[:, 0]
    triples, index = distinct_products(
        c,
        (t_entries, t_entries, md.s.table().embed(c).nums[:, 0]),
        (
            np.append(np.repeat(t, r), np.full(r, t[u])),
            np.append(np.tile(t, r), t),
            np.append(slots, slots[u]),
        ),
    )
    triples = triples.astype(object)
    lhs, rhs = index[: r * r].reshape(r, r), index[r * r :]
    a, j, k = ring.indices().T
    right = np.zeros((r, r, triples.shape[1]), dtype=object)
    np.add.at(right, (a, j), triples[rhs[k]] * ring.table[:, 3:].astype(object))
    return bool((triples[lhs[list(ring.dual)]] == right).all())


def per_label_scalar_checks(md: ModularData) -> dict:
    """The checks of `validate_modular` that loop over labels, run one
    label at a time: {name: (ok, where, detail)}.  Needs S_uu and T_u
    nonzero."""
    dims, theta = per_label_dims_and_twists(md)
    out = {}
    ok, where, detail = True, None, ""
    for i, d in enumerate(dims):
        if d.conj() != d:
            ok, where, detail = False, (i,), "not fixed by conjugation"
            break
        if d.real_sign() <= 0:
            ok, where, detail = False, (i,), f"approx {d.approx().real:.3g} not positive"
            break
    out["dims_real_positive"] = (ok, where, detail)

    total = md.s_unit.inverse()
    square_sum = ZERO
    for d in dims:
        square_sum = square_sum + d * d
    ok = total * total == square_sum
    detail = "" if ok else "1/S_uu squared differs from sum of d_i^2"
    if ok and (total.conj() != total or total.real_sign() <= 0):
        ok, detail = False, "D not positive"
    out["total_dim"] = (ok, None, detail)

    ok, where = True, None
    for i, th in enumerate(theta):
        if th.as_root_of_unity() is None:
            ok, where = False, (i,)
            break
    out["theta_root_of_unity"] = (ok, where, "")

    tau_plus, tau_minus = per_label_taus(md)
    lhs, rhs = _balancing_sides(md, theta, tau_plus * md.s_unit)
    mismatch = np.argwhere(~lhs.entries_equal(rhs))
    ok = not len(mismatch)
    out["balancing"] = (ok, None if ok else tuple(int(x) for x in mismatch[0]), "")
    out["gauss_identity"] = (tau_plus * tau_minus == total * total, None, "")
    return out


# ---------------------------------------------------------------------------
# per-distinct-value reference routes for the Gauss sums and the
# root-of-unity read-off
# ---------------------------------------------------------------------------


def mpmath_root_of_unity(x: Cyclotomic) -> tuple | None:
    """`Cyclotomic.as_root_of_unity` as it was before the float64 guess:
    the unit-modulus test first, then the exponent guessed from the
    mpmath argument and its neighbours, then the scan."""
    if x.is_zero():
        return None
    if x.conductor == 1:
        r = x.as_rational()
        return (0, 1) if r == 1 else (1, 2) if r == -1 else None
    if x * x.conj() != 1:
        return None
    m = _lcm(2, x.conductor)
    target = x.embed(m)

    def packaged(j: int) -> tuple:
        j %= m
        if j == 0:
            return (0, 1)
        g = gcd(j, m)
        return (j // g, m // g)

    val = x.approx()
    guess = round(math.atan2(val.imag, val.real) * m / (2 * math.pi))
    for j in (guess, guess + 1, guess - 1):
        if target == zeta(m, j % m):
            return packaged(j)
    if m > 10**5:
        raise NumericError(f"root-of-unity scan refused for order {m}")
    for j in range(m):
        if target == zeta(m, j):
            return packaged(j)
    return None


def per_slot_twist_roots(theta: tuple, slots: np.ndarray) -> tuple:
    """`_twist_exponents` as it was before the exponent match: (None,
    order, exponents) with theta_i = zeta_order^exponents[i], by one
    `as_root_of_unity` per distinct T slot; or ((i,), None, None) for
    the first label i whose twist is no root of unity."""
    slots = slots.tolist()
    roots: dict = {}
    for i, x in enumerate(slots):
        if x not in roots:
            roots[x] = theta[i].as_root_of_unity()
            if roots[x] is None:
                return (i,), None, None
    order = math.lcm(*(m for _, m in roots.values()))
    return None, order, np.array([k * (order // m) for k, m in map(roots.get, slots)])


def two_branch_twist_exponents(md: ModularData) -> tuple:
    """`_twist_exponents` as it was with two branches, not cached: T's
    root exponents less T_u's when T_u is a root of unity, otherwise the
    root exponents of the twists factored afresh."""
    t = md.t
    m, roots = t.root_exponents()
    unit = roots[t.slots[md.unit_index]]
    if unit < 0:
        t = FactoredMatrix.vector(md.theta())
        m, roots = t.root_exponents()
        unit = 0
    roots = roots.tolist()
    if min(roots) < 0:
        return (int(np.flatnonzero(np.array(roots)[t.slots] < 0)[0]),), None, None
    roots = [(r - unit) % m for r in roots]
    g = math.gcd(m, *roots)
    return None, m // g, _exponent_array([r // g for r in roots], m // g)[t.slots]


@lru_cache(maxsize=None)
def _root_rows(n: int) -> dict:
    """{`_root_row(n, j)`: j} for j < lcm(2, n)."""
    return {_root_row(n, j): j for j in range(_lcm(2, n))}


def lookup_root_exponents(matrix: FactoredMatrix) -> tuple[int, np.ndarray]:
    """`FactoredMatrix.root_exponents` as it was before every entry went
    to the kernel, not kept: each packed row of the entries looked up
    among the rows of zeta_m^j, j < m = lcm(2, n), a missed row or one
    the common denominator does not divide being no root; past
    `_PRODUCT_TABLE_CAP` coefficients of rows, one `as_root_of_unity`
    per entry."""
    table = matrix.table()
    n, den, rows = table.conductor, table.den, table.nums[:, 0]
    m = _lcm(2, n)
    if m * rows.shape[1] <= _PRODUCT_TABLE_CAP:
        lookup = _root_rows(n)
        whole = (rows % den == 0).all(axis=1)
        found = [lookup.get(tuple(row), -1) for row in (rows // den).tolist()]
        return m, np.where(whole, found, -1)
    found = (e.as_root_of_unity() for e in matrix.entries)
    return m, np.array([-1 if r is None else r[0] * m // r[1] for r in found])


def t_table_gauss_sum(md: ModularData, sign: int) -> Cyclotomic:
    """`_gauss_sum` as it was before the exponent route, not cached: the
    histogram of (unit-row S slot, T slot) pairs times the packed table
    of the T entries (of their inverses for tau-), one d^2 product per
    class, and one division by T_u."""
    tu = md.t[md.unit_index]
    if tu.is_zero():
        raise NonModular("T_u = 0, twists undefined")
    t = md.t
    if sign < 0:
        t = FactoredMatrix(tuple(e.inverse() for e in t.entries), t.slots)
    if md.s_unit.is_zero():
        raise NonModular("S_{uu} = 0")
    unit_row = md.s.slots[md.unit_index]
    classes = sorted(set(unit_row.tolist()))
    row = np.searchsorted(classes, unit_row)
    count = np.bincount(
        row * len(t.entries) + t.slots, minlength=len(classes) * len(t.entries)
    ).reshape(len(classes), len(t.entries))
    table = t.table()
    nums = table.nums[:, 0]
    sums = _linear(count, (nums, int(np.abs(nums).sum(axis=0).max())))
    total = ZERO
    for a, class_sum in zip(classes, sums.tolist()):
        term = Cyclotomic(table.conductor, tuple(class_sum), table.den)
        if a != unit_row[md.unit_index]:  # on the slot of S_uu, d = 1
            d = md.s.entries[a] * md.total_dim()
            term = d * d * term
        total = total + term
    return total * (tu.inverse() if sign > 0 else tu)


def t_table_central_charge(md: ModularData) -> Fraction:
    """`central_charge` as it was before `_root_phase`: tau+/D from
    `t_table_gauss_sum`, read off `as_root_of_unity`."""
    u = t_table_gauss_sum(md, 1) * md.s_unit  # tau+ / D
    root = u.as_root_of_unity()
    if root is None:
        raise NotRootOfUnity(f"tau+/D = {u} is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


def power_row_milgram_signature(mg: MetricGroup) -> Fraction:
    """`milgram_signature` as it was before `_root_phase`: g from the
    q-exponent histogram and the power rows of the exponents present, its
    magnitude checked, and g sqrt(|A|) / |A| read off `as_root_of_unity`."""
    e, m = mg._derived(_exponents)
    exponents, counts = np.unique(e, return_counts=True)
    rows = np.array([_power_row(m, k) for k in exponents.tolist()], dtype=np.int64)
    g = Cyclotomic(m, tuple((counts @ rows).tolist()))
    if g * g.conj() != mg.size:
        raise Degenerate("Gauss sum magnitude differs from sqrt(|A|)")
    root = (g * sqrt_int(mg.size) / mg.size).as_root_of_unity()
    if root is None:
        raise Degenerate("Gauss sum over sqrt(|A|) is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


def distinct_pair_gauss_sum(md: ModularData, sign: int) -> Cyclotomic:
    """tau+ (sign 1) or tau- (sign -1) as one term per distinct
    (d_i, theta_i^sign) pair times its multiplicity: the route before
    the (unit-row slot, T slot) histogram.  Nothing is cached, and the
    errors come in the order of that route."""
    t_unit = md.t[md.unit_index]
    if t_unit.is_zero():
        raise NonModular("T_u = 0, twists undefined")
    theta = tuple(v / t_unit for v in md.t)
    if sign < 0:
        theta = tuple(th.inverse() for th in theta)
    if md.s_unit.is_zero():
        raise NonModular("S_{uu} = 0")
    dims = tuple(x / md.s_unit for x in md.s[md.unit_index])
    pairs: dict = {}
    for d, th in zip(dims, theta):
        key = (d.conductor, d.nums, d.den, th.conductor, th.nums, th.den)
        if key in pairs:
            pairs[key][2] += 1
        else:
            pairs[key] = [d, th, 1]
    total = ZERO
    for d, th, count in pairs.values():
        total = total + d * d * th * count
    return total


def distinct_pair_central_charge(md: ModularData) -> Fraction:
    """`central_charge` from the distinct-pair tau+ and the mpmath-guided
    read-off."""
    u = distinct_pair_gauss_sum(md, 1) * md.s_unit  # tau+ / D
    root = mpmath_root_of_unity(u)
    if root is None:
        raise NotRootOfUnity(f"tau+/D = {u} is not a root of unity")
    k, m = root
    return Fraction(8 * k, m) % 8


def central_charge_via_square(md: ModularData) -> Fraction:
    """Secondary route: (tau+/D)^2 = tau+/tau- exactly gives c mod 4,
    and of the two square roots e^(2 pi i c/8) and its negative,
    tau+/D is the one with tau+ = e^(2 pi i c/8) D exactly.  Used as a
    cross-check of `central_charge`."""
    tau_plus, tau_minus, total = gauss_sums(md)
    square = tau_plus / tau_minus
    root = square.as_root_of_unity()
    if root is None:
        raise NotRootOfUnity(f"tau+/tau- = {square} is not a root of unity")
    k, m = root
    base = Fraction(4 * k, m) % 8
    return base if tau_plus == from_angle(base / 8) * total else (base + 4) % 8


def distinct_pair_central_charge_via_square(md: ModularData) -> Fraction:
    """`central_charge_via_square` from the distinct-pair Gauss sums and
    the mpmath-guided read-off."""
    tau_plus, tau_minus = distinct_pair_gauss_sum(md, 1), distinct_pair_gauss_sum(md, -1)
    total = md.s_unit.inverse()
    if tau_plus * tau_minus != total * total:
        raise GaussIdentityFailure("tau+ tau- differs from D^2")
    square = tau_plus / tau_minus
    root = mpmath_root_of_unity(square)
    if root is None:
        raise NotRootOfUnity(f"tau+/tau- = {square} is not a root of unity")
    k, m = root
    base = Fraction(4 * k, m) % 8
    return base if tau_plus == from_angle(base / 8) * total else (base + 4) % 8


# ---------------------------------------------------------------------------
# backtracking reference route for the candidate search
# ---------------------------------------------------------------------------

# leaves passing the dimension check are screened for S n = n in batches
S_SCREEN_BATCH = 4096
# a float residual of row i above this multiple of (1 + sum_j h_ij n_j),
# with h_ij >= |S_ij| the height of S_ij, rejects; it sits many orders
# above the rounding of the float screen on any row
S_SCREEN_RTOL = 1e-9


def s_invariant(md: ModularData, n) -> bool:
    """Exact test of S n = n for an integer multiplicity vector n.

    n is real, so the test reads the same for S and for its conjugate
    S^-1; the convention of the data does not matter.
    """
    support = [j for j, v in enumerate(n) if v]
    return all(
        cyc_sum(row[j] if n[j] == 1 else row[j] * n[j] for j in support) == n[i]
        for i, row in enumerate(md.s)
    )


def per_label_theta_trivial(md: ModularData) -> list:
    """Labels with theta_i = 1, one `Cyclotomic` comparison per label
    (the search reads it as twist exponent 0, `modular._twist_exponents`,
    one root read per distinct entry)."""
    theta = md.theta()
    one = theta[md.unit_index]
    return [i for i in range(md.rank) if theta[i] == one]


def per_member_fixed_space_matrix(md: ModularData, columns: list) -> np.ndarray:
    """The matrix A of the S n = n system whose Gram matrix
    `obstruction._fixed_space_rows` returns, (r phi, k + 1), built in
    Python integers with one object cast per orbit member."""
    packed = md.s.packed()
    r, _, phi = packed.nums.shape
    a = np.zeros((r, phi, len(columns)), dtype=object)
    for c, members in enumerate(columns):
        for j in members:
            a[:, :, c] += packed.nums[:, j, :].astype(object)
            a[j, 0, c] -= packed.den
    return a.reshape(r * phi, len(columns))


def per_member_fixed_space_rows(md: ModularData, columns: list) -> list:
    """The distinct nonzero rows of `per_member_fixed_space_matrix`, as
    tuples in order of first appearance: the row form of the system."""
    rows = dict.fromkeys(map(tuple, per_member_fixed_space_matrix(md, columns).tolist()))
    return [row for row in rows if any(row)]


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries, leading entry positive."""
    g = math.gcd(*row)
    if next(v for v in row if v) < 0:
        g = -g
    return [v // g for v in row]


def list_reduced_system(rows, width: int) -> dict | None:
    """`obstruction._reduced_system` by Python-list row combinations, one
    row at a time: each row is reduced by the basis so far, made
    primitive and cleared from the basis rows, in Python integers (the
    rows of an int64 array are read as such, not as numpy scalars)."""
    basis: dict = {}
    for row in ([int(x) for x in row] for row in rows):
        for p, prow in basis.items():
            if row[p]:
                row = [prow[p] * x - row[p] * y for x, y in zip(row, prow)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None:
            continue
        if lead == width - 1:
            return None
        row = _primitive(row)
        for p, prow in basis.items():
            if prow[lead]:
                basis[p] = _primitive([row[lead] * x - prow[lead] * y for x, y in zip(prow, row)])
        basis[lead] = row
    return basis


def _float_and_height(x) -> tuple:
    """x as a complex float under zeta_N = e^(2 pi i/N), and its height
    h = sum_k |v_k| / den over its power-basis coefficients v_k.

    h bounds |x|, and (phi(N) + 10) * 2^-53 * h bounds the error of the
    float value, so a bound written in heights covers the rounding.
    """
    step = 2j * math.pi / x.conductor
    value = sum((v / x.den) * cmath.exp(step * k) for k, v in enumerate(x.nums) if v)
    return complex(value), sum(abs(v) for v in x.nums) / x.den


def _s_screen_columns(md: ModularData, columns: list) -> tuple:
    """Float data for screening S n = n on vectors constant on each
    group of labels in `columns`, one matrix column per group.

    Returns (M, H).  Rows i and r + i of M times the group multiplicities
    give the real and imaginary parts of (S n - n)_i; rows i and r + i of
    H times them give sum_j h_ij n_j, with h_ij the height of S_ij.
    """
    r = md.rank
    residual = np.zeros((2 * r, len(columns)))
    height = np.zeros((2 * r, len(columns)))
    for c, members in enumerate(columns):
        for j in members:
            for i in range(r):
                value, h = _float_and_height(md.s[i][j])
                residual[i, c] += value.real
                residual[r + i, c] += value.imag
                height[i, c] += h
                height[r + i, c] += h
            residual[j, c] -= 1.0
    return residual, height


def gate_first_pointed_verdict(md: ModularData, hint: MetricGroup) -> ObstructionReport:
    """`obstruction.verdict(md, pointed_hint=hint)` with the gate first:
    c from tau+ of md, then the hint check, `lagrangian_subgroups` and
    one `subgroup_indicator` call per subgroup.  The hinted branch as it
    was before c came from the hint's Milgram sum."""
    passed, c = central_charge_gate(md)
    if not passed:
        return ObstructionReport("NoBoundary_CentralCharge", c)
    if not matches_modular_data(hint, md):
        raise InputError("pointed hint does not regenerate the modular data")
    subs = lagrangian_subgroups(hint)
    indicators = tuple(subgroup_indicator(hint, sub) for sub in subs)
    return ObstructionReport(
        "ExactBoundaries", c, candidates=indicators, subgroups=tuple(map(tuple, subs))
    )


def random_q_table(rng: random.Random, max_size: int = 16) -> MetricGroup:
    """A metric group whose q is a random table and not a quadratic
    form: each value, q(0) too, drawn from (1/M) Z / Z for one seeded M,
    and redrawn until `validate_metric` fails while the pairing q defines
    is nondegenerate, which is all that `metric_modular_data` and
    `matches_modular_data` ask."""
    while True:
        orders = tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2)))
        if math.prod(orders) > max_size:
            continue
        m = rng.choice((2, 3, 4, 6, 8, 12))
        q = {a: Fraction(rng.randrange(m), m) for a in product(*(range(n) for n in orders))}
        mg = MetricGroup(orders=orders, q=q)
        if len(mg.radical()) == 1 and not validate_metric(mg).ok:
            return mg


def backtracking_candidates(md: ModularData, budget: int | None = None) -> list:
    """All multiplicity vectors passing the necessary conditions.

    Exhaustive backtracking over theta-trivial, dual-symmetric supports;
    the dimension constraint sum n_i d_i = D is checked exactly at the
    leaves, float bounds only prune (with slack, so nothing exact is
    lost).  Multiplicities are capped by min(16, D/d_i), not by the
    floor(d_i) of `candidate_search`, so agreement checks that the
    sharper cap loses nothing.  Leaves that pass it must also satisfy S n = n.  A float
    screen rejects a leaf only when the real or imaginary part of some
    row of S n - n exceeds S_SCREEN_RTOL * (1 + sum_j h_ij n_j), where
    the height h_ij bounds both |S_ij| and the error of its float value;
    every leaf it keeps is accepted only by the exact `s_invariant` test.  Returns [] outright
    when the central-charge gate fails.  Output is sorted
    lexicographically.
    """
    passed, _ = central_charge_gate(md)
    if not passed:
        return []
    if budget is None:
        budget = search_budget()

    r = md.rank
    u = md.unit_index
    theta = md.theta()
    dims = md.dims()
    total = md.total_dim()
    dual = md.dual_permutation()
    if dual is None:
        raise NonModular("S^2 is not a permutation matrix")

    one = theta[u]
    eligible = [i for i in range(r) if i != u and theta[i] == one]
    d_float = [x.approx().real for x in dims]
    total_float = total.approx().real

    orbits = []  # (members, exact weight per unit of multiplicity, float weight, bound)
    seen = set()
    for i in eligible:
        if i in seen:
            continue
        j = dual[i]
        if j == i:
            members = (i,)
            weight = dims[i]
            wfloat = d_float[i]
        else:
            if theta[j] != one:
                # dual of a theta-trivial label is theta-trivial in valid
                # data; a violation here just means the label is unusable
                seen.add(i)
                continue
            members = (i, j)
            weight = dims[i] + dims[j]
            wfloat = d_float[i] + d_float[j]
        seen.update(members)
        bound = min(16, math.floor(total_float / max(d_float[k] for k in members) + 1e-9))
        if bound > 0:
            orbits.append((members, weight, wfloat, bound))
    orbits.sort(key=lambda o: o[0])

    suffix_max = [0.0] * (len(orbits) + 1)
    for idx in range(len(orbits) - 1, -1, -1):
        suffix_max[idx] = suffix_max[idx + 1] + orbits[idx][3] * orbits[idx][2]

    residual0 = total - dims[u]
    residual0_float = total_float - d_float[u]
    slack = 1e-6
    found = []
    assignment = [0] * len(orbits)
    pending = []  # orbit multiplicities of leaves with sum n_i d_i = D
    screen = None
    nodes = 0

    def confirm_pending() -> None:
        # float screen on the whole batch, then exact S n = n on survivors
        nonlocal screen
        if screen is None:
            screen = _s_screen_columns(md, [(u,)] + [o[0] for o in orbits])
        residual, height = screen
        mults = np.ones((len(orbits) + 1, len(pending)))
        mults[1:, :] = np.array(pending, dtype=float).T
        miss = np.abs(residual @ mults)
        keep = (miss <= S_SCREEN_RTOL * (1.0 + height @ mults)).all(axis=0)
        for k in np.flatnonzero(keep):
            vec = [0] * r
            vec[u] = 1
            for (members, _, _, _), mult in zip(orbits, pending[k]):
                for m in members:
                    vec[m] = mult
            if s_invariant(md, vec):
                found.append(tuple(vec))
        pending.clear()

    def walk(idx: int, residual, residual_float: float) -> None:
        nonlocal nodes
        if residual_float < -slack or residual_float > suffix_max[idx] + slack:
            return
        if idx == len(orbits):
            if residual == 0:
                pending.append(tuple(assignment))
                if len(pending) >= S_SCREEN_BATCH:
                    confirm_pending()
            return
        members, weight, wfloat, bound = orbits[idx]
        top = min(bound, math.floor(residual_float / wfloat + slack))
        for mult in range(top + 1):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"candidate search exceeded {budget} nodes"
                )
            assignment[idx] = mult
            walk(idx + 1, residual - weight * mult if mult else residual,
                 residual_float - wfloat * mult)
        assignment[idx] = 0

    walk(0, residual0, residual0_float)
    if pending:
        confirm_pending()
    return sorted(found)


# ---------------------------------------------------------------------------
# dict-of-keys reference routes for fusion rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class DictFusionRing:
    """A fusion ring stored as a {(i, j, k): N} dict and checked key by
    key at construction: the representation `FusionRing` had before it
    held one sorted table."""

    labels: tuple
    unit: tuple
    dual: tuple
    fusion: dict

    def __post_init__(self):
        r = len(self.labels)
        if r == 0:
            raise InputError("a fusion ring needs at least one label")
        if len(set(self.labels)) != r:
            raise InputError("duplicate labels")
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        unit = tuple(self.unit)
        if not unit:
            raise InputError("unit_summands must be nonempty")
        if len(set(unit)) != len(unit):
            raise InputError("repeated unit summand")
        if any(not isinstance(u, int) or not 0 <= u < r for u in unit):
            raise InputError("unit summand index out of range")
        object.__setattr__(self, "unit", tuple(sorted(unit)))
        dual = tuple(self.dual)
        if len(dual) != r or sorted(dual) != list(range(r)):
            raise InputError("dual must be a permutation of all label indices")
        object.__setattr__(self, "dual", dual)
        fusion = {}
        for key, value in self.fusion.items():
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
                fusion[(i, j, k)] = value
        object.__setattr__(self, "fusion", fusion)

    @staticmethod
    def of(ring: FusionRing) -> "DictFusionRing":
        return DictFusionRing(ring.labels, ring.unit, ring.dual, dict(ring.fusion))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def n(self, i: int, j: int, k: int) -> int:
        return self.fusion.get((i, j, k), 0)

    def dense(self) -> np.ndarray:
        r = self.rank
        out = np.zeros((r, r, r), dtype=np.int64)
        for (i, j, k), v in self.fusion.items():
            out[i, j, k] = v
        return out

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": list(self.unit),
            "dual": list(self.dual),
            "fusion": [[i, j, k, v] for (i, j, k), v in sorted(self.fusion.items())],
        }

    @staticmethod
    def from_json_dict(obj) -> "DictFusionRing":
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
        fusion: dict = {}
        for row in triples:
            if not _is_int_list(row) or len(row) != 4:
                raise InputError(f"bad fusion row {row!r}")
            i, j, k, v = row
            if (i, j, k) in fusion:
                raise InputError(f"duplicate fusion triple {(i, j, k)}")
            fusion[(i, j, k)] = v
        return DictFusionRing(
            labels=tuple(labels),
            unit=tuple(obj["unit"]),
            dual=tuple(obj["dual"]),
            fusion=fusion,
        )


def _is_int_list(obj) -> bool:
    return isinstance(obj, list) and all(type(x) is int for x in obj)


def dict_validate(ring: DictFusionRing) -> ValidationReport:
    """`fusion.validate` one key at a time."""
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

    ok, where = True, None
    for j in range(r):
        for k in range(r):
            want = 1 if j == k else 0
            left = sum(ring.n(u, j, k) for u in ring.unit)
            right = sum(ring.n(j, u, k) for u in ring.unit)
            if left != want or right != want:
                ok, where = False, (j, k)
                break
        if not ok:
            break
    report.add("unit_law", ok, where)

    report.add("associativity", *dict_associativity(ring))

    ok, where = True, None
    for (i, j, k), v in sorted(ring.fusion.items()):
        if ring.n(ring.dual[i], k, j) != v or ring.n(k, ring.dual[j], i) != v:
            ok, where = False, (i, j, k)
            break
    report.add("frobenius_reciprocity", ok, where)
    return report


def dict_associativity(ring: DictFusionRing) -> tuple:
    """Dense int64 einsum up to rank 64, one key at a time beyond; the
    int64 route wraps silently once r max N^2 reaches 2^63."""
    r = ring.rank
    if r <= 64:
        n = ring.dense()
        left = np.einsum("ijm,mkl->ijkl", n, n)
        right = np.einsum("jkm,iml->ijkl", n, n)
        if np.array_equal(left, right):
            return True, None
        bad = np.argwhere(left != right)[0]
        return False, tuple(int(t) for t in bad)
    by_left: dict = {}
    for (i, j, k), v in ring.fusion.items():
        by_left.setdefault((i, j), []).append((k, v))
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(v * ring.n(m, k, l) for m, v in by_left.get((i, j), ()))
                    rhs = sum(v * ring.n(i, m, l) for m, v in by_left.get((j, k), ()))
                    if lhs != rhs:
                        return False, (i, j, k, l)
    return True, None


def exact_associativity(ring) -> tuple:
    """(x_i x_j) x_k = x_i (x_j x_k) on Python integers, by brute force."""
    r = ring.rank
    for i, j, k, l in product(range(r), repeat=4):
        lhs = sum(ring.n(i, j, m) * ring.n(m, k, l) for m in range(r))
        rhs = sum(ring.n(j, k, m) * ring.n(i, m, l) for m in range(r))
        if lhs != rhs:
            return False, (i, j, k, l)
    return True, None


def dict_ring_product(a: DictFusionRing, b: DictFusionRing) -> DictFusionRing:
    rb = b.rank
    labels = tuple(f"({x},{y})" for x in a.labels for y in b.labels)
    unit = tuple(u * rb + v for u in a.unit for v in b.unit)
    dual = tuple(a.dual[i] * rb + b.dual[j] for i in range(a.rank) for j in range(rb))
    fusion = {}
    for (i, j, k), v in a.fusion.items():
        for (x, y, z), w in b.fusion.items():
            fusion[(i * rb + x, j * rb + y, k * rb + z)] = v * w
    return DictFusionRing(labels=labels, unit=unit, dual=dual, fusion=fusion)


def dict_direct_sum(a: DictFusionRing, b: DictFusionRing, tags=("a", "b")) -> DictFusionRing:
    ra = a.rank
    labels = tuple(f"{x}.{tags[0]}" for x in a.labels) + tuple(
        f"{x}.{tags[1]}" for x in b.labels
    )
    unit = tuple(a.unit) + tuple(u + ra for u in b.unit)
    dual = tuple(a.dual) + tuple(d + ra for d in b.dual)
    fusion = dict(a.fusion)
    for (i, j, k), v in b.fusion.items():
        fusion[(i + ra, j + ra, k + ra)] = v
    return DictFusionRing(labels=labels, unit=unit, dual=dual, fusion=fusion)


def dict_group_ring(orders: tuple) -> DictFusionRing:
    elements = list(product(*(range(n) for n in orders))) or [()]
    index = {e: i for i, e in enumerate(elements)}
    labels = tuple(",".join(str(c) for c in e) if e else "0" for e in elements)

    def add(x, y):
        return tuple((p + q) % n for p, q, n in zip(x, y, orders))

    def neg(x):
        return tuple((-p) % n for p, n in zip(x, orders))

    fusion = {
        (index[x], index[y], index[add(x, y)]): 1 for x in elements for y in elements
    }
    dual = tuple(index[neg(e)] for e in elements)
    return DictFusionRing(
        labels=labels, unit=(index[tuple(0 for _ in orders)],), dual=dual, fusion=fusion
    )


def dict_unit_summands_check(ring: DictFusionRing) -> list:
    bad: list = []
    unit = ring.unit
    for u in unit:
        if ring.dual[u] != u:
            bad.append((u, "not self-dual"))
        for v in unit:
            expected_diag = 1 if u == v else 0
            for k in range(ring.rank):
                want = expected_diag if k == u else 0
                if ring.n(u, v, k) != want:
                    bad.append((u, v, k))
    return bad


def dict_block_partition(ring: DictFusionRing) -> BlockDecomposition:
    """`block_partition` label by label and key by key, in the dict's order."""
    violations = dict_unit_summands_check(ring)
    if violations:
        raise AmbiguousBlock(f"unit summands are not orthogonal projectors: {violations[0]}")
    unit = ring.unit
    position = {u: p for p, u in enumerate(unit)}
    block_of: dict = {}
    for x in range(ring.rank):
        lefts = [u for u in unit if ring.n(u, x, x) == 1]
        rights = [u for u in unit if ring.n(x, u, x) == 1]
        if len(lefts) != 1 or len(rights) != 1:
            raise AmbiguousBlock(
                f"label {ring.labels[x]} is supported by {len(lefts)} left and "
                f"{len(rights)} right unit projectors"
            )
        block_of[x] = (position[lefts[0]], position[rights[0]])
    for (x, y, z), v in ring.fusion.items():
        (i, j), (k, l) = block_of[x], block_of[y]
        if j != k:
            raise AmbiguousBlock(
                f"nonzero product across mismatched blocks: "
                f"{ring.labels[x]} in block ({i},{j}) times {ring.labels[y]} in block ({k},{l})"
            )
        if block_of[z] != (i, l):
            raise AmbiguousBlock(
                f"product {ring.labels[x]} * {ring.labels[y]} leaves its block: "
                f"{ring.labels[z]} sits in block {block_of[z]}, expected ({i}, {l})"
            )
    parent = list(range(len(unit)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in block_of.values():
        ra, rb = find(i), find(j)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for p in range(len(unit)):
        groups.setdefault(find(p), []).append(p)
    components = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    return BlockDecomposition(ring=ring, block_of=block_of, components=components)


def dict_corner_ring(dec: BlockDecomposition, i: int) -> DictFusionRing:
    ring = dec.ring
    keep = dec.block_labels(i, i)
    index = {x: t for t, x in enumerate(keep)}
    fusion = {
        (index[x], index[y], index[z]): v
        for (x, y, z), v in ring.fusion.items()
        if x in index and y in index and z in index
    }
    return DictFusionRing(
        labels=tuple(ring.labels[x] for x in keep),
        unit=(index[ring.unit[i]],),
        dual=tuple(index[ring.dual[x]] for x in keep),
        fusion=fusion,
    )


# ---------------------------------------------------------------------------
# extended-Euclid reference route for Cyclotomic.inverse
# ---------------------------------------------------------------------------


def euclid_inverse(x: Cyclotomic) -> Cyclotomic:
    """1/x by the extended Euclid of x's polynomial with Phi_N, for every
    irrational x."""
    if x.conductor == 1:
        return x.inverse()
    n = x.conductor
    target = [Fraction(v, x.den) for v in x.nums]
    modulus = [Fraction(c) for c in cyclotomic_polynomial(n)]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def polymod(p, q):
        p = list(p)
        dq = deg(q)
        lead = q[dq]
        quo = [Fraction(0)] * (max(len(p) - dq, 1))
        for k in range(len(p) - 1, dq - 1, -1):
            if p[k]:
                c = p[k] / lead
                quo[k - dq] = c
                for i in range(dq + 1):
                    p[k - dq + i] -= c * q[i]
        return quo, p[:dq] if dq > 0 else [Fraction(0)]

    r0, r1 = modulus, target
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) > 0:
        quo, rem = polymod(r0, r1)
        r0, r1 = r1, rem
        prod = [Fraction(0)] * (len(quo) + len(s1))
        for i, qc in enumerate(quo):
            if qc:
                for j, sc in enumerate(s1):
                    if sc:
                        prod[i + j] += qc * sc
        nxt = [Fraction(0)] * max(len(s0), len(prod))
        for i, v in enumerate(s0):
            nxt[i] += v
        for i, v in enumerate(prod):
            nxt[i] -= v
        s0, s1 = s1, nxt
    c = r1[deg(r1)]
    inv = [v / c for v in s1]
    phi = euler_phi(n)
    while len(inv) > phi:
        top = inv.pop()
        if top:
            row = _power_row(n, len(inv))
            for t, rt in enumerate(row):
                if rt:
                    inv[t] += top * rt
    inv += [Fraction(0)] * (phi - len(inv))
    den = 1
    for v in inv:
        den = _lcm(den, v.denominator)
    return Cyclotomic(n, tuple(int(v * den) for v in inv), den)


# ---------------------------------------------------------------------------
# JSON I/O reference routes
# ---------------------------------------------------------------------------


def stdlib_json_text(obj) -> str:
    """The CLI and category-file text before `specfile.json_text`: the
    stdlib's pure-Python indenting encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def field_keyed_scalar_parser():
    """`modular._scalar_parser` before the marshal key: objects with an
    integer "N" and pairs of strings in "c" keyed by those fields, any
    other object parsed on its own."""
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


def row_scan_json_table(triples: list) -> np.ndarray:
    """`fusion._json_table` before its C-level passes: every row scanned
    one by one, then the table built."""
    _scan_rows(triples)
    return _table_of(triples)


def loop_duality_orbits(dual, trivial, floors, u: int) -> list:
    """[(members, floors[i])]: the theta-trivial duality orbits as a
    seen-set loop over the theta-trivial labels builds them, then sorted;
    an oracle for `obstruction._duality_orbits`."""
    eligible = [i for i in np.flatnonzero(trivial).tolist() if i != u]
    orbits = []
    seen = set()
    for i in eligible:
        if i in seen:
            continue
        j = int(dual[i])
        if j == i:
            members = (i,)
        elif not trivial[j]:
            seen.add(i)
            continue
        else:
            members = (i, j)
        seen.update(members)
        if floors[i] > 0:
            orbits.append((members, floors[i]))
    orbits.sort(key=lambda o: o[0])
    return orbits


def budget_label_blocks(made: np.ndarray, budget: int, span: int | None = None) -> list:
    """The label blocks [start, stop) for a budget counted in items, not
    bytes: greedily about budget items per block, at least one label and
    at most span; an oracle for `fusion._label_blocks`."""
    r = len(made) - 1
    span = span or r
    out, start = [], 0
    while start < r:
        stop = int(np.searchsorted(made, made[start] + budget, side="right")) - 1
        stop = min(max(stop, start + 1), start + span)
        out.append((start, stop))
        start = stop
    return out


def su2(k: int) -> ModularData:
    """SU(2)_k: labels j = 0..k, n = k + 2, S_ij = sqrt(2/n) sin(pi (i+1)
    (j+1)/n), T_j = e^(2 pi i j(j+2)/4n), and the ring from Verlinde."""
    n = k + 2
    # sqrt(2n)/n (x - 1/x) (-i)/2 = sqrt(2/n) sin(pi a/n) for x = e^(i pi a/n)
    scale = sqrt_int(2 * n) * rational(Fraction(1, n)) * zeta(4, 3) * rational(Fraction(1, 2))
    s = tuple(
        tuple(
            scale * (from_angle(Fraction(a, 2 * n)) - from_angle(Fraction(-a, 2 * n)))
            for a in ((i + 1) * (j + 1) for j in range(k + 1))
        )
        for i in range(k + 1)
    )
    t = tuple(from_angle(Fraction(j * (j + 2), 4 * n)) for j in range(k + 1))
    md = ModularData(s=s, t=t)
    return ModularData(s=md.s, t=md.t, ring=ring_from_verlinde(md, tuple(map(str, range(k + 1)))))


def ciz_invariants(k: int) -> dict:
    """The Cappelli-Itzykson-Zuber modular invariants Z of SU(2)_k for k
    = 4 and 10, each as the vector n_(i,j) = Z_ij at label i (k + 1) + j
    of double(su2(k)): A (Z = delta), D, and at k = 10 E_6."""
    r = k + 1
    blocks = {"A": [(i,) for i in range(r)]}  # Z = sum of |sum of block|^2
    if k % 4 == 0:
        blocks["D"] = [(i, k - i) for i in range(0, k // 2, 2)] + [(k // 2,)] * 2
        pairs = {}
    else:  # k = 2 mod 4: sum_(i even) |chi_i|^2 + sum_(i odd) chi_i conj(chi_(k-i))
        blocks["D"] = [(i,) for i in range(0, r, 2)]
        pairs = {"D": [(i, k - i) for i in range(1, r, 2)]}
    if k == 10:
        blocks["E6"] = [(0, 6), (3, 7), (4, 10)]
    out = {}
    for name, summands in blocks.items():
        z = [[0] * r for _ in range(r)]
        for block in summands:
            for i, j in product(block, block):
                z[i][j] += 1
        for i, j in pairs.get(name, ()):
            z[i][j] += 1
        out[name] = tuple(z[i][j] for i in range(r) for j in range(r))
    return out


def galois_conjugate(md: ModularData, a: int) -> tuple[ModularData, bool]:
    """(data, negated): sigma_a, for a prime to N = md.conductor(),
    applied to every distinct S and T entry at conductor N, keeping the
    slots, the unit and the ring; S is negated, and negated is True, when
    sigma_a(S_uu) is real and negative, since D may take either sign."""
    n = md.conductor()

    def conjugate(matrix: FactoredMatrix) -> FactoredMatrix:
        entries = [x.embed(n) for x in matrix.entries]
        return FactoredMatrix(
            tuple(Cyclotomic(n, _embed_nums(x.nums, n, n, a), x.den) for x in entries),
            matrix.slots,
        )

    s, t = conjugate(md.s), conjugate(md.t)
    s_uu = s[md.unit_index][md.unit_index]
    negated = s_uu.conj() == s_uu and s_uu.real_sign() < 0
    if negated:
        s = FactoredMatrix(tuple(-x for x in s.entries), s.slots)
    return ModularData(s=s, t=t, unit_index=md.unit_index, ring=md.ring), negated


def per_label_fp_dimensions(ring: FusionRing) -> list[float]:
    """`fusion.fp_dimensions` one label at a time: each left
    multiplication matrix (N_ij^k)_jk built from the label's table rows
    and solved by its own `np.linalg.eigvals` call.  The oracle of the
    stacked solve; needs every multiplicity at most FP_MULTIPLICITY_CAP."""
    r = ring.rank
    dims = []
    for i in range(r):
        rows = ring.table[ring.table[:, 0] == i]
        matrix = np.zeros((r, r))
        matrix[rows[:, 1].astype(np.int64), rows[:, 2].astype(np.int64)] = rows[:, 3]
        eigs = np.linalg.eigvals(matrix)
        if not np.all(np.isfinite(eigs)):
            raise NumericError(f"eigenvalue computation failed for label {i}")
        real = [e.real for e in eigs if abs(e.imag) <= _REAL_TOLERANCE * (1 + abs(e))]
        if not real:
            raise NumericError(f"no real eigenvalue for label {i}")
        dims.append(max(real))
    return dims
