"""Shared generators for the test suite."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from mtcbound.cyclotomic import (
    ZERO,
    Cyclotomic,
    _embed_nums,
    _lcm,
    _power_row,
    cyc_sum,
    cyclotomic_polynomial,
    euler_phi,
    from_angle,
    sqrt_int,
)
from mtcbound.errors import (
    AmbiguousBlock,
    Degenerate,
    GaussIdentityFailure,
    InputError,
    NonIntegralVerlinde,
    NonModular,
    NotRootOfUnity,
    SearchBudgetExceeded,
    SizeLimit,
)
from mtcbound.fusion import FusionRing
from mtcbound.modular import ModularData, PackedMatrix, _balancing_sides, _settle
from mtcbound.multifusion import BlockDecomposition
from mtcbound.obstruction import central_charge_gate, search_budget
from mtcbound.pointed import SUBGROUP_SIZE_CAP, MetricGroup, _element_label
from mtcbound.report import ValidationReport

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


def fraction_radical(mg: MetricGroup) -> list:
    """Elements pairing trivially with every generator, by `Fraction`s."""
    gens = mg.generators()
    return [
        a
        for a in mg.elements
        if all(mg.bilinear(a, g) == 0 for g in gens)
    ]


def fraction_validate_metric(mg: MetricGroup) -> ValidationReport:
    """`validate_metric` with one `Fraction` polynomial per element."""
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

    rad = fraction_radical(mg)
    report.add(
        "nondegenerate",
        len(rad) == 1,
        None if len(rad) == 1 else (rad[1] if len(rad) > 1 else None,),
    )
    return report


def per_element_milgram_signature(mg: MetricGroup) -> Fraction:
    """`milgram_signature` adding one `from_angle` per element."""
    g = cyc_sum(from_angle(mg.qval(a)) for a in mg.elements)
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


def per_entry_metric_modular_data(mg: MetricGroup) -> ModularData:
    """Pointed modular data built one entry at a time: S[a][b] from the
    `Fraction` pairing `mg.bilinear(a, b)`, the ring from `mg.add`."""
    if len(fraction_radical(mg)) != 1:
        raise Degenerate("bilinear form has a nonzero radical")
    n = mg.size
    elements = mg.elements
    inv_sqrt = sqrt_int(n).inverse()
    s = tuple(
        tuple(from_angle(-mg.bilinear(a, b)) * inv_sqrt for b in elements)
        for a in elements
    )
    t = tuple(from_angle(mg.qval(a)) for a in elements)
    labels = tuple(_element_label(a) for a in elements)
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
        dual=tuple(index(mg.neg(a)) for a in elements),
        fusion=fusion,
    )
    return ModularData(s=s, t=t, unit_index=index(zero), ring=ring)


# ---------------------------------------------------------------------------
# object-per-entry reference routes for the packed matrix layer
# ---------------------------------------------------------------------------


def per_entry_pack(rows, conductor: int | None = None) -> PackedMatrix:
    """`PackedMatrix.pack` with every entry embedded and scaled on its own."""
    if conductor is None:
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
