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
  an algebra structure on them.  S n = n is screened in floats first;
  the screen only rejects, and every vector it keeps is accepted only
  by the exact test `s_invariant`.

The fusion inequality n_i n_j <= sum_k N_ij^k n_k is a further
standard-theory filter.  It defaults on for ranking but is kept out of
the definitive-NO path, so `verdict` always runs the search with the
filter off first.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cyclotomic import cyc_sum
from .errors import InputError, NonModular, SearchBudgetExceeded
from .modular import ModularData, central_charge, ring_from_verlinde
from .pointed import MetricGroup, lagrangian_subgroups, matches_modular_data, subgroup_indicator

DEFAULT_MAX_MULT = 16
DEFAULT_BUDGET = 10**8
# leaves passing the dimension check are screened for S n = n in batches
S_SCREEN_BATCH = 4096
# a float residual of row i above this multiple of (1 + sum_j h_ij n_j),
# with h_ij >= |S_ij| the height of S_ij, rejects; it sits many orders
# above the rounding of the float screen on any row
S_SCREEN_RTOL = 1e-9
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
FILTER_CONDITION = "fusion inequality n_i n_j <= sum_k N_ij^k n_k (ranking only)"


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


def fusion_inequality_holds(md: ModularData, n) -> bool:
    ring = md.ring if md.ring is not None else md._derived("ring", ring_from_verlinde)
    support = [i for i, v in enumerate(n) if v]
    for i in support:
        for j in support:
            rhs = sum(ring.n(i, j, k) * n[k] for k in range(len(n)) if n[k])
            if n[i] * n[j] > rhs:
                return False
    return True


def candidate_search(
    md: ModularData,
    use_fusion_filter: bool = True,
    max_mult: int = DEFAULT_MAX_MULT,
    budget: int | None = None,
) -> list:
    """All multiplicity vectors passing the necessary conditions.

    Exhaustive backtracking over theta-trivial, dual-symmetric supports;
    the dimension constraint sum n_i d_i = D is checked exactly at the
    leaves, float bounds only prune (with slack, so nothing exact is
    lost).  Leaves that pass it must also satisfy S n = n.  A float
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
        bound = min(max_mult, math.floor(total_float / max(d_float[k] for k in members) + 1e-9))
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
    if use_fusion_filter:
        found = [n for n in found if fusion_inequality_holds(md, n)]
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
    filtered_candidates: tuple = ()
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
        if self.verdict == "CandidatesFound":
            out["filtered_candidates"] = [list(n) for n in self.filtered_candidates]
        if self.verdict == "ExactBoundaries":
            out["subgroups"] = [
                [",".join(str(c) for c in a) if a else "0" for a in sub]
                for sub in self.subgroups
            ]
        return out


def _conditions(with_filter: bool) -> dict:
    standard = STANDARD_CONDITIONS + ((FILTER_CONDITION,) if with_filter else ())
    return {
        "theorem_level": THEOREM_CONDITIONS,
        "standard_theory_level": standard,
    }


def verdict(
    md: ModularData,
    pointed_hint: MetricGroup | None = None,
    use_fusion_filter: bool = True,
    max_mult: int = DEFAULT_MAX_MULT,
    budget: int | None = None,
) -> ObstructionReport:
    """Pipeline: gate, then exact pointed answer, then candidate search.

    The definitive-NO branch always uses the filter-off search; the
    fusion filter only trims the reported candidate list.
    """
    passed, c = central_charge_gate(md)
    if not passed:
        return ObstructionReport(
            verdict="NoBoundary_CentralCharge",
            central_charge=c,
            exact=True,
            conditions=_conditions(False),
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
            conditions=_conditions(False),
        )
    unfiltered = candidate_search(md, use_fusion_filter=False, max_mult=max_mult, budget=budget)
    if not unfiltered:
        return ObstructionReport(
            verdict="NoBoundary_NoCandidate",
            central_charge=c,
            exact=True,
            conditions=_conditions(False),
        )
    kept = tuple(
        n for n in unfiltered if not use_fusion_filter or fusion_inequality_holds(md, n)
    )
    return ObstructionReport(
        verdict="CandidatesFound",
        central_charge=c,
        candidates=tuple(unfiltered),
        filtered_candidates=kept,
        exact=False,
        conditions=_conditions(use_fusion_filter),
    )
