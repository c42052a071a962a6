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
  an algebra structure on them.  S n = n is one integer linear system A
  over the packed coefficients of S (its unit row is sum n_i d_i = D).
  Its Gram matrix A^T A, one row per unknown and the row space of A, is
  one product, reduced exactly by a fraction-free elimination on one
  numpy integer array with one vectorised step per pivot (int64 while a
  bound allows, Python integers past it).  The search branches only on
  its free multiplicities and solves for the others, so every candidate
  solves the system exactly and no float decides acceptance.  Each
  multiplicity is capped by n_i <= floor(d_i), which holds for every
  connected etale algebra (Davydov-Mueger-Nikshych-Ostrik,
  arXiv:1009.2117); the floor is exact.

With a pointed hint (`verdict --pointed`), the hint is checked first
(`pointed.matches_modular_data`).  If it regenerates the data, c is the
hint's Milgram sum (`pointed.milgram_signature`), which is tau+/D of
these data, and the answer is the hint's Lagrangian subgroups with their
indicators (`pointed.lagrangian_answer`).  If it does not, or either
call raises, the gate runs first as without a hint, and a hint that
passes it without regenerating the data is refused.

Unhinted pointed data with a group ring skip the search:
`pointed.lagrangian_candidates` gives the candidates the search would,
sorted, or None, and then the search runs.  The report is the same,
byte for byte; exit 3 and MTC_SEARCH_BUDGET concern the search alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, MtcError, NonModular, NotRootOfUnity, SearchBudgetExceeded
from .fusion import _exact_dtype, _max_abs, _settle, _widen, element_label
from .modular import ModularData, _dual_problem, _slot_map, _twist_exponents, central_charge
from .pointed import (
    MetricGroup,
    lagrangian_answer,
    lagrangian_candidates,
    matches_modular_data,
    milgram_signature,
)

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


def _fixed_space_rows(md: ModularData, columns: list) -> np.ndarray:
    """The Gram matrix A^T A of the integer system A m = 0 that says
    S n = n for n = sum_c m_c 1_(columns[c]).

    Column c of A is sum_(j in columns[c]) (S e_j - e_j) in packed-S
    coefficients times den, one row per label and power of zeta.  A^T A
    has the row space of A over Q, so its RREF (`_reduced_system`): its
    rows combine those of A, and A^T A x = 0 gives |A x|^2 = 0, so the
    kernels and ranks agree.  A gathers packed S, summed per orbit; top
    bounds |A|, so R top^2 bounds each partial sum of A^T A for R rows,
    the bound that picks the dtype of both (`fusion._exact_dtype`).
    """
    packed = md.s.packed()
    sizes = [len(c) for c in columns]
    members = [j for c in columns for j in c]
    # packed S is a gather of the table of distinct S entries
    top = max(sizes) * _max_abs(md.s.table().nums) + packed.den
    a = packed.nums[:, members, :].astype(_exact_dtype(packed.nums[:, 0].size * top * top))
    a = np.add.reduceat(a, np.cumsum([0] + sizes[:-1]), axis=1)  # (r, k, phi)
    a[members, np.repeat(np.arange(len(columns)), sizes), 0] -= packed.den
    a = a.transpose(0, 2, 1).reshape(-1, len(columns))
    return _settle(a.T @ a)


def _reduced_system(rows, width: int) -> dict | None:
    """The reduced row echelon form of the rows over Q, as {pivot column:
    primitive integer row, leading entry positive}; None when the last
    column is a pivot, that is, when A [m; 1] = 0 has no solution.

    Rows are taken in order, and a row's pivot is the leading column
    left once the pivots found before it are cleared from it; the dict
    keeps the order in which pivots are found, which fixes the search
    plan.  The elimination is fraction-free on one integer array, and
    every row is kept primitive.  A pivot row is only negated to make its
    leading entry positive; then it clears its column from every other
    row in one step, p x - c y, and each changed row is divided by the
    gcd of its entries.  A step makes entries of at most 2 top^2 for top
    the largest |entry| before it, the bound that keeps the array int64
    or makes it Python integers for the rest of the run.
    """
    a = np.asarray(rows)
    if a.dtype != np.int64:  # Python integers, in a list or an object array
        a = np.array(rows, dtype=object)
    a = a.reshape(len(a), width).copy()
    g = np.gcd.reduce(a, axis=1)
    a //= np.maximum(g, 1)[:, None]
    pivots: dict = {}
    for i in range(len(a)):
        nonzero = a[i].nonzero()[0]
        if not len(nonzero):
            continue
        lead = int(nonzero[0])
        if lead == width - 1:
            return None
        if a[i, lead] < 0:
            a[i] = -a[i]
        hit = a[:, lead].nonzero()[0]
        if len(hit) > 1:
            a = _widen(a, 2 * _max_abs(a) ** 2)
            row, rows = a[i].copy(), a[hit]
            rows = row[lead] * rows - rows[:, lead, None] * row  # row i becomes 0
            g = np.gcd.reduce(rows, axis=1)
            a[hit] = rows // np.maximum(g, 1)[:, None]
            a[i] = row
        pivots[lead] = i
    return {lead: a[i].tolist() for lead, i in pivots.items()}


def _duality_orbits(dual: np.ndarray, trivial: np.ndarray, floors: tuple, u: int) -> list:
    """[(members, floors[i])]: the theta-trivial duality orbits other than
    the unit's, (i,) or (i, i*), with floors[i] > 0, in increasing i.

    dual is an involution fixing u.  A label stands for its orbit when it
    and its dual are theta-trivial, it is not u, and i <= i*; so the
    orbits are disjoint and listed by their least member.
    """
    labels = np.arange(len(dual))
    lead = np.flatnonzero(trivial & trivial[dual] & (labels != u) & (labels <= dual))
    return [
        ((i,) if i == j else (i, j), floors[i])
        for i, j in zip(lead.tolist(), dual[lead].tolist())
        if floors[i] > 0  # a label and its dual have the same dimension
    ]


def candidate_search(md: ModularData) -> list:
    """All multiplicity vectors passing the necessary conditions.

    The unknowns are the multiplicities m_c of the theta-trivial duality
    orbits (the unit has multiplicity 1), listed by `_duality_orbits`:
    a Lagrangian algebra is self-dual, so n_i = n_i*.  theta_i = 1 is
    read as twist exponent 0 (`modular._twist_exponents`).  Two
    preconditions of `validate_modular` are required, each refused with
    no candidate: every twist a root of unity (`theta_root_of_unity`;
    otherwise NotRootOfUnity), and S^2 an involution fixing the unit
    (`s_squared_dual_permutation`, read by `modular._dual_problem`;
    otherwise NonModular).  S n = n is one integer linear
    system A [m; 1] = 0 over the packed coefficients of S, and its unit
    row is sum n_i d_i = D, so the dimension condition comes with it.
    The system is brought to reduced row echelon form exactly, through
    its Gram matrix (`_fixed_space_rows`); if the unit column is a pivot
    there is no solution.  Each multiplicity lies in the box
    0..floor(d_i), with the floor computed exactly.  The free columns
    are walked right to left over their box; a pivot column is forced by
    its row as soon as the free columns of that row (all right of it)
    are set, and the branch dies unless the forced value is an integer
    in the box.  Every leaf solves the system exactly, and no float
    bounds or decides anything.  In any plan the leaves are the integer
    solutions in the box, so the output depends on the RREF alone and
    the order of its pivots moves only the node count.  A node is one
    assignment of a free or forced column; past `search_budget()` nodes,
    read once per call, the search raises SearchBudgetExceeded.  Returns
    [] outright when the central-charge gate fails.  Output is sorted
    lexicographically.
    """
    passed, _ = central_charge_gate(md)
    if not passed:
        return []
    budget = search_budget()

    r = md.rank
    u = md.unit_index
    where, _, exponents = _twist_exponents(md)
    if where is not None:
        raise NotRootOfUnity(f"theta_{where[0]} is not a root of unity")
    dual = md.dual_permutation()
    problem = _dual_problem(dual, u)
    if problem is not None:
        raise NonModular(problem)

    total = md.total_dim()  # d_i = S_ui D
    floors = md._derived(
        "dim_floors",
        lambda md: _slot_map(lambda x: (x * total).floor(), md.s.entries, md.s.slots[u]),
    )
    orbits = _duality_orbits(np.array(dual), exponents == 0, floors, u)

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


CONDITIONS = {
    "theorem_level": THEOREM_CONDITIONS,
    "standard_theory_level": STANDARD_CONDITIONS,
}


@dataclass(frozen=True)
class ObstructionReport:
    """A verdict with its evidence.  Every verdict but CandidatesFound is
    exact, and every report carries the mod-8 caveat and the conditions
    that `verdict` applies; these three are derived, not stored."""

    verdict: str
    central_charge: Fraction
    candidates: tuple = ()
    subgroups: tuple = ()

    @property
    def exact(self) -> bool:
        return self.verdict != "CandidatesFound"

    @property
    def caveats(self) -> tuple:
        return (MOD8_CAVEAT,)

    @property
    def conditions(self) -> dict:
        return CONDITIONS

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
            out["subgroups"] = [[element_label(a) for a in sub] for sub in self.subgroups]
        return out


def _hinted_charge(md: ModularData, hint: MetricGroup) -> Fraction | None:
    """c mod 8 from the hint's Milgram sum (`pointed.milgram_signature`)
    when the hint regenerates md (`pointed.matches_modular_data`); None
    when it does not, or when either call raises an MtcError, and
    `verdict` then runs its gate first, as without this shortcut.

    The gate's c is the same number.  On matched data, with q(a) = e_a/M
    and zeta = zeta_M, S_ac = zeta^(-K[a, c]) / sqrt|A| and T_a =
    zeta^(e_a), for K[a, c] = e_(a+c) - e_a - e_c mod M.  The unit is
    the zero u, so K[u, a] = -e_u for every a: the unit row of S is
    constant and every d_a = 1.  Then tau+ S_uu = sum_a zeta^(e_a - e_u)
    zeta^(e_u) / sqrt|A| = g / sqrt|A| for the Milgram sum g = sum_a
    zeta^(e_a), q(0) = 0 or not, and both routes ask
    `cyclotomic._root_phase` for the root of unity of that one number.
    """
    try:
        if matches_modular_data(hint, md):
            return milgram_signature(hint)
    except MtcError:
        pass
    return None


def verdict(md: ModularData, pointed_hint: MetricGroup | None = None) -> ObstructionReport:
    """Pipeline: with a pointed hint that regenerates md, c from the
    hint's Milgram sum (`_hinted_charge`); otherwise the gate, and a
    hint that passes it but does not regenerate md is refused.  Then the
    exact pointed answer from the hint (`pointed.lagrangian_answer`), or
    the candidates: by the subgroup enumeration on pointed data with a
    group ring (`pointed.lagrangian_candidates`), else by the candidate
    search; none is the definitive NoBoundary_NoCandidate.  The search
    reads its node budget from MTC_SEARCH_BUDGET."""
    c = None if pointed_hint is None else _hinted_charge(md, pointed_hint)
    if c is None:
        passed, c = central_charge_gate(md)
        if passed and pointed_hint is not None and not matches_modular_data(pointed_hint, md):
            raise InputError("pointed hint does not regenerate the modular data")
    if c != 0:
        return ObstructionReport("NoBoundary_CentralCharge", c)
    if pointed_hint is not None:
        subgroups, indicators = lagrangian_answer(pointed_hint)
        return ObstructionReport("ExactBoundaries", c, candidates=indicators, subgroups=subgroups)
    found = lagrangian_candidates(md)
    if found is None:
        found = candidate_search(md)
    if not found:
        return ObstructionReport("NoBoundary_NoCandidate", c)
    return ObstructionReport("CandidatesFound", c, candidates=tuple(found))
