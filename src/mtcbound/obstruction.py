"""Verdict engine for the gapped-boundary question.

Given validated modular data, decide what can be said about the
existence of a gapped boundary (equivalently, about the category being
a Drinfeld center).  The pipeline has two tiers with different
epistemic weight, and reports keep them separate:

* theorem-level: the central charge must vanish mod 8.  Failing this is
  a definitive NO.
* multiplicity-level: a boundary forces a Lagrangian algebra object
  A = sum n_i x_i whose multiplicity vector satisfies standard
  necessary conditions (trivial twists on the support, dual symmetry,
  n_unit = 1, sum n_i d_i = D) and is fixed by S as well as by T:
  S n = n (Lan-Wang-Wen, arXiv:1408.6514; Davydov-Mueger-Nikshych-
  Ostrik, arXiv:1009.2117).  If no vector survives, that is also a
  definitive NO.  Survivors are candidates only; nothing here verifies
  an algebra structure on them.  S n = n is one integer linear system
  over the packed coefficients of S (its unit row is sum n_i d_i = D),
  reduced exactly once; the search branches only on its free
  multiplicities and solves for the others, so every candidate solves
  the system exactly and no float decides acceptance.  Each
  multiplicity is capped by n_i <= floor(d_i), which holds for every
  connected etale algebra (Davydov-Mueger-Nikshych-Ostrik,
  arXiv:1009.2117); the floor is exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyclotomic
from .errors import InputError, NonModular, SearchBudgetExceeded
from .modular import ModularData, _distinct_map, central_charge
from .pointed import MetricGroup, lagrangian_subgroups, matches_modular_data, subgroup_indicator

DEFAULT_BUDGET = 10**8
BUDGET_ENV = "MTC_SEARCH_BUDGET"

MOD8_CAVEAT = (
    "central charge known only mod 8 from modular data; "
    "deformation-class obstruction (cf. E8) invisible"
)

THEOREM_CONDITIONS = ("central charge vanishes mod 8",)
STANDARD_CONDITIONS = (
    "support has trivial twists",
    "support is closed under duality",
    "unit multiplicity is 1",
    "total dimension of the candidate equals D",
    "multiplicity vector is fixed by S (S n = n)",
)


def search_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"{BUDGET_ENV} must be positive")
    return value


def central_charge_gate(md: ModularData):
    """(passed, c mod 8); the theorem-level necessary condition.  c is
    computed once per datum, so `verdict` and its search share it."""
    c = md._derived("c", central_charge)
    return c == 0, c


def _fixed_space_rows(md: ModularData, columns: list) -> list:
    """Distinct nonzero rows of the integer system A m = 0 that says
    S n = n for n = sum_c m_c 1_(columns[c]).

    Column c is sum_(j in columns[c]) (S e_j - e_j) in packed-S
    coefficients times den, one row per label and power of zeta.  The
    power basis is a basis, so A m = 0 iff S n = n exactly.
    """
    packed = md.packed_s()
    r, _, phi = packed.nums.shape
    a = np.zeros((r, phi, len(columns)), dtype=object)  # Python integers
    for c, members in enumerate(columns):
        for j in members:
            a[:, :, c] += packed.nums[:, j, :].astype(object)
            a[j, 0, c] -= packed.den
    rows = dict.fromkeys(map(tuple, a.reshape(r * phi, len(columns)).tolist()))
    return [row for row in rows if any(row)]


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries, leading entry positive."""
    g = math.gcd(*row)
    if next(v for v in row if v) < 0:
        g = -g
    return [v // g for v in row]


def _reduced_system(rows: list, width: int) -> dict | None:
    """The reduced row echelon form of the rows over Q, as {pivot column:
    primitive integer row}; None when the last column is a pivot, that
    is, when the system A [m; 1] = 0 has no solution."""
    basis: dict = {}
    for row in rows:
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


def candidate_search(md: ModularData, budget: int | None = None) -> list:
    """All multiplicity vectors passing the necessary conditions.

    The unknowns are the multiplicities m_c of the theta-trivial duality
    orbits (the unit has multiplicity 1).  S n = n is one integer linear
    system A [m; 1] = 0 over the packed coefficients of S, and its unit
    row is sum n_i d_i = D, so the dimension condition comes with it.
    The system is brought to reduced row echelon form exactly; if the
    unit column is a pivot there is no solution.  Each multiplicity lies
    in the box 0..floor(d_i), with the floor computed exactly.  The free
    columns are walked right to left over their box; a pivot column is
    forced by its row as soon as the free columns of that row (all right
    of it) are set, and the branch dies unless the forced value is an
    integer in the box.  Every leaf solves the system exactly, and no
    float bounds or decides anything.  A node is one assignment of a
    free or forced column.  Returns [] outright when the central-charge
    gate fails.  Output is sorted lexicographically.
    """
    passed, _ = central_charge_gate(md)
    if not passed:
        return []
    if budget is None:
        budget = search_budget()

    r = md.rank
    u = md.unit_index
    theta = md.theta()
    dual = md.dual_permutation()
    if dual is None:
        raise NonModular("S^2 is not a permutation matrix")

    one = theta[u]
    eligible = [i for i in range(r) if i != u and theta[i] == one]
    floors = md._derived("dim_floors", lambda md: _distinct_map(Cyclotomic.floor, md.dims()))

    orbits = []  # (members, bound on the multiplicity)
    seen = set()
    for i in eligible:
        if i in seen:
            continue
        j = dual[i]
        if j == i:
            members = (i,)
        elif theta[j] != one:
            # dual of a theta-trivial label is theta-trivial in valid
            # data; a violation here just means the label is unusable
            seen.add(i)
            continue
        else:
            members = (i, j)
        seen.update(members)
        # a label and its dual have the same dimension
        if floors[i] > 0:
            orbits.append((members, floors[i]))
    orbits.sort(key=lambda o: o[0])

    k = len(orbits)
    system = _reduced_system(_fixed_space_rows(md, [o[0] for o in orbits] + [(u,)]), k + 1)
    if system is None:
        return []
    # Steps (column, pivot entry or None if free, free terms, constant):
    # free columns right to left, each pivot column as soon as the free
    # columns of its row (all right of it) are assigned.
    forced_after: dict = {}
    for col, row in system.items():
        terms = tuple((f, row[f]) for f in range(col + 1, k) if row[f])
        last = min((f for f, _ in terms), default=k)
        forced_after.setdefault(last, []).append((col, row[col], terms, row[k]))
    plan = list(forced_after.get(k, ()))
    for col in range(k - 1, -1, -1):
        if col not in system:
            plan.append((col, None, (), 0))
            plan.extend(forced_after.get(col, ()))

    found = []
    mults = [0] * k
    nodes = 0

    def walk(step: int) -> None:
        nonlocal nodes
        if step == k:
            vec = [0] * r
            vec[u] = 1
            for (members, _), mult in zip(orbits, mults):
                for m in members:
                    vec[m] = mult
            found.append(tuple(vec))
            return
        col, lead, terms, constant = plan[step]
        bound = orbits[col][1]
        if lead is None:
            choices = range(bound + 1)
        else:
            mult, rest = divmod(-constant - sum(c * mults[f] for f, c in terms), lead)
            choices = (mult,) if rest == 0 and 0 <= mult <= bound else ()
        for mult in choices:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"candidate search exceeded {budget} nodes")
            mults[col] = mult
            walk(step + 1)

    walk(0)
    return sorted(found)


def canonical_double_candidate(md: ModularData) -> tuple:
    """The diagonal vector on double(md): n_(i,j) = 1 iff i = j.

    Twists cancel on the diagonal and sum d_i^2 = D(double), so this
    always satisfies the candidate invariants.
    """
    r = md.rank
    vec = [0] * (r * r)
    for i in range(r):
        vec[i * r + i] = 1
    return tuple(vec)


@dataclass(frozen=True)
class ObstructionReport:
    verdict: str
    central_charge: Fraction
    candidates: tuple = ()
    subgroups: tuple = ()
    exact: bool = False
    caveats: tuple = (MOD8_CAVEAT,)
    conditions: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "central_charge": f"{self.central_charge} mod 8",
            "candidates": [list(n) for n in self.candidates],
            "exact": self.exact,
            "caveats": list(self.caveats),
            "conditions": {k: list(v) for k, v in sorted(self.conditions.items())},
        }
        if self.verdict == "ExactBoundaries":
            out["subgroups"] = [
                [",".join(str(c) for c in a) if a else "0" for a in sub]
                for sub in self.subgroups
            ]
        return out


CONDITIONS = {
    "theorem_level": THEOREM_CONDITIONS,
    "standard_theory_level": STANDARD_CONDITIONS,
}


def verdict(
    md: ModularData,
    pointed_hint: MetricGroup | None = None,
    budget: int | None = None,
) -> ObstructionReport:
    """Pipeline: gate, then exact pointed answer, then candidate search;
    an empty search is the definitive NoBoundary_NoCandidate."""
    passed, c = central_charge_gate(md)
    if not passed:
        return ObstructionReport(
            verdict="NoBoundary_CentralCharge",
            central_charge=c,
            exact=True,
            conditions=CONDITIONS,
        )
    if pointed_hint is not None:
        if not matches_modular_data(pointed_hint, md):
            raise InputError("pointed hint does not regenerate the modular data")
        subs = lagrangian_subgroups(pointed_hint)
        indicators = tuple(subgroup_indicator(pointed_hint, sub) for sub in subs)
        return ObstructionReport(
            verdict="ExactBoundaries",
            central_charge=c,
            candidates=indicators,
            subgroups=tuple(tuple(sub) for sub in subs),
            exact=True,
            conditions=CONDITIONS,
        )
    found = candidate_search(md, budget=budget)
    if not found:
        return ObstructionReport(
            verdict="NoBoundary_NoCandidate",
            central_charge=c,
            exact=True,
            conditions=CONDITIONS,
        )
    return ObstructionReport(
        verdict="CandidatesFound",
        central_charge=c,
        candidates=tuple(found),
        exact=False,
        conditions=CONDITIONS,
    )
