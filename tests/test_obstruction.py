import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mtcbound import corpus
from mtcbound.cyclotomic import ZERO, from_angle, rational, zeta
from mtcbound.errors import (
    InputError,
    MtcError,
    NonModular,
    NotRootOfUnity,
    SearchBudgetExceeded,
    SizeLimit,
)
from mtcbound.fusion import FusionRing, group_law
from mtcbound import fusion, modular, obstruction, pointed
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    _dual_problem,
    _twist_exponents,
    box_tensor,
    central_charge,
    double,
    reverse,
    validate_modular,
)
from mtcbound.obstruction import (
    ObstructionReport,
    candidate_search,
    canonical_double_candidate,
    central_charge_gate,
    search_budget,
    verdict,
)
from mtcbound.pointed import (
    MetricGroup,
    abelian_double,
    lagrangian_subgroups,
    metric_modular_data,
    milgram_signature,
    subgroup_indicator,
)
from tests.helpers import (
    backtracking_candidates,
    gate_first_pointed_verdict,
    loop_duality_orbits,
    random_metric_group,
    random_q_table,
    relabelled,
    s_invariant,
    su2,
)


class TestGate:
    def test_semion_fails_with_c_1(self):
        assert central_charge_gate(corpus.semion().modular) == (False, Fraction(1))

    def test_ising_fails_with_c_half(self):
        assert central_charge_gate(corpus.ising().modular) == (False, Fraction(1, 2))

    def test_toric_passes(self):
        passed, c = central_charge_gate(corpus.toric_code().modular)
        assert passed and c == 0

    def test_gated_search_is_empty(self):
        assert candidate_search(corpus.semion().modular) == []
        assert candidate_search(corpus.fibonacci().modular) == []


class TestSearch:
    def test_toric_candidates_are_the_two_lines(self):
        md = corpus.toric_code().modular
        assert candidate_search(md) == [(1, 0, 1, 0), (1, 1, 0, 0)]

    def test_double_fibonacci_has_only_the_diagonal(self):
        fib = corpus.fibonacci().modular
        found = candidate_search(double(fib))
        assert found == [canonical_double_candidate(fib)] == [(1, 0, 0, 1)]

    def test_double_ising_s_invariance_drops_the_fake(self):
        # the fake passes the T-side conditions (twist, duality, unit,
        # 1 + 3 d_(psi,psi) = 4 = D) but (S n)_4 = 1 != 3, so S n = n
        # rejects it
        ising = corpus.ising().modular
        md = double(ising)
        diag = canonical_double_candidate(ising)
        fake = (1, 0, 0, 0, 3, 0, 0, 0, 0)
        found = candidate_search(md)
        assert not s_invariant(md, fake)
        assert s_invariant(md, diag)
        assert fake not in found
        assert found == [diag]

    def test_forced_multiplicity_must_be_an_integer_in_the_box(self, monkeypatch):
        # designed systems on toric code's bosons e, m (columns 0 and 1,
        # the unit last), so that the walk meets a pivot entry above 1
        # and a forced value above the cap; floor(d_e) = floor(d_m) = 1
        # caps both at 1
        md = corpus.toric_code().modular

        def system(*rows):
            monkeypatch.setattr(obstruction, "_fixed_space_rows", lambda md, columns: list(rows))

        system((2, 1, -2))  # m_m = 1 would force m_e = 1/2
        assert candidate_search(md) == [(1, 1, 0, 0)]
        system((1, 1, -2))  # m_m = 0 forces m_e = 2, above the cap
        assert candidate_search(md) == [(1, 1, 1, 0)]
        system((0, 0, 1))  # the unit column is a pivot: no solution
        assert candidate_search(md) == []

    def test_budget_is_enforced(self, monkeypatch):
        # four free columns there, so about 80 nodes; double(ising) has
        # none and its two forced nodes stay under any budget >= 2
        md = double(corpus.toric_code().modular)
        monkeypatch.setenv("MTC_SEARCH_BUDGET", "3")
        with pytest.raises(SearchBudgetExceeded):
            candidate_search(md)

    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.setenv("MTC_SEARCH_BUDGET", "123")
        assert search_budget() == 123
        monkeypatch.setenv("MTC_SEARCH_BUDGET", "zero")
        with pytest.raises(InputError):
            search_budget()
        monkeypatch.setenv("MTC_SEARCH_BUDGET", "-5")
        with pytest.raises(InputError):
            search_budget()
        monkeypatch.delenv("MTC_SEARCH_BUDGET")
        assert search_budget() == 10**8


def three_cycle_data() -> ModularData:
    """S = 1 + P for P the permutation matrix of a 3-cycle, T = 1: the
    gate passes (every d but the unit's is 0), and S^2 = 1 + P^2 is a
    permutation that is no involution."""
    one, zero = rational(1), ZERO
    s = [[one, zero, zero, zero]] + [
        [zero] + [one if j == (i + 1) % 3 else zero for j in range(3)] for i in range(3)
    ]
    return ModularData(s=s, t=[one] * 4)


class TestDualityOrbits:
    @staticmethod
    def orbits(md) -> tuple:
        """(`_duality_orbits`, the loop oracle) on md's own inputs."""
        args = (
            np.array(md.dual_permutation()),
            _twist_exponents(md)[2] == 0,
            tuple(d.floor() for d in md.dims()),
            md.unit_index,
        )
        return obstruction._duality_orbits(*args), loop_duality_orbits(*args)

    def test_the_mask_lists_the_loop_orbits_on_named_data(self):
        data = [
            (name, corpus.build(name).modular)
            for name in corpus.fixture_names()
            if corpus.build(name).modular is not None
        ]
        assert len(data) == 13
        ising, semion, fibonacci = (corpus.build(n).modular for n in ("ising", "semion", "fibonacci"))
        toric = corpus.build("toric_code").modular
        data += [
            ("rank-144 double", double(box_tensor(toric, ising))),
            ("double(su2(4))", double(su2(4))),
            ("double(su2(10))", double(su2(10))),
            ("double(ising x semion)", double(box_tensor(ising, semion))),
            ("double(ising x semion^rev)", double(box_tensor(ising, reverse(semion)))),
            ("double(ising x fibonacci)", double(box_tensor(ising, fibonacci))),
        ]
        listed = 0
        for name, md in data:
            new, old = self.orbits(md)
            assert new == old, name
            listed += bool(new)
        # all but trivial, semion, ising, fibonacci and double_trivial
        assert listed == 14

    def test_the_mask_lists_the_loop_orbits_on_random_involutions(self):
        rng = random.Random(34)
        paired = 0
        for _ in range(12_000):
            r = rng.randint(1, 12)
            u = rng.randrange(r)
            dual = list(range(r))
            others = [i for i in range(r) if i != u]
            rng.shuffle(others)
            for a, b in zip(others[: rng.randint(0, len(others) // 2)], others[len(others) // 2 :]):
                dual[a], dual[b] = b, a
            trivial = np.array([rng.random() < 0.7 for _ in range(r)])
            floors = tuple(rng.randint(0, 3) for _ in range(r))
            args = (np.array(dual), trivial, floors, u)
            new = obstruction._duality_orbits(*args)
            assert new == loop_duality_orbits(*args), args
            paired += any(len(members) == 2 for members, _ in new)
        assert paired >= 3000

    def test_an_s_squared_that_is_no_involution_is_refused(self):
        # the parent's loop took {1, 2} as an "orbit" here and reported
        # the candidate (1, 0, 0, 0)
        md = three_cycle_data()
        assert central_charge_gate(md) == (True, 0)
        assert md.dual_permutation() == (0, 3, 1, 2)
        failed = [c.name for c in validate_modular(md).checks if not c.ok]
        assert failed == [
            "s_symmetric",
            "dims_real_positive",
            "s_squared_dual_permutation",
            "theta_dual_invariant",
            "balancing",
            "verlinde_integral",
        ]
        with pytest.raises(NonModular, match="not an involution fixing the unit"):
            verdict(md)
        with pytest.raises(NonModular, match="not an involution fixing the unit"):
            candidate_search(md)

    def test_one_reader_of_the_dual_involution(self):
        # validate_modular and candidate_search both read _dual_problem
        moved = "S^2 permutation is not an involution fixing the unit"
        assert _dual_problem(None, 0) == "S^2 is not a permutation matrix"
        assert _dual_problem((0, 2, 3, 1), 0) == moved  # a 3-cycle
        assert _dual_problem((1, 0, 2), 0) == moved  # a transposition moving the unit
        assert _dual_problem((1, 0, 2), 2) is None  # an involution fixing it


class TestTwistsOffTheCircle:
    def test_the_search_refuses_a_twist_that_is_no_root_of_unity(self):
        # toric code's S with T = (1, 3/2, 1/2, -1): tau+/D = 1, so the
        # gate passes, and theta_1 = 3/2 is no root of unity, so no exact
        # answer may rest on these twists
        toric = corpus.build("toric_code").modular
        t = tuple(map(rational, (1, Fraction(3, 2), Fraction(1, 2), -1)))
        for ring in (toric.ring, None):
            md = ModularData(s=toric.s, t=t, ring=ring)
            assert central_charge_gate(md) == (True, 0)
            failed = validate_modular(md).failed_names()
            assert failed == ["theta_root_of_unity", "balancing", "gauss_identity"]
            for call in (verdict, candidate_search):
                with pytest.raises(NotRootOfUnity, match=r"^theta_1 is not a root of unity$"):
                    call(ModularData(s=toric.s, t=t, ring=ring))


class TestCanonicalCandidate:
    def test_shapes(self):
        assert canonical_double_candidate(corpus.trivial().modular) == (1,)
        fib = corpus.fibonacci().modular
        assert canonical_double_candidate(fib) == (1, 0, 0, 1)

    def test_member_of_search_output(self):
        for name in ("trivial", "semion", "double_semion", "ising", "fibonacci"):
            base = corpus.build(name).modular
            diag = canonical_double_candidate(base)
            dbl = double(base)
            assert diag in candidate_search(dbl), name


class TestPointedCrossOracle:
    def test_toric_candidates_are_subgroup_indicators(self):
        mg = corpus.toric_code().metric
        md = metric_modular_data(mg)
        subs = lagrangian_subgroups(mg)
        indicators = sorted(subgroup_indicator(mg, s) for s in subs)
        assert candidate_search(md) == indicators

    def test_t_side_conditions_admit_more_than_the_subgroups(self):
        # Z4 x Z4 with q = (x^2 - y^2)/8: the gate passes (signature 0)
        # and the element (2,2) is isotropic with (2,2)+(2,2) = 0, so
        # multiplicity 3 on it satisfies the four T-side conditions
        # without any order-4 isotropic subgroup behind it: those
        # conditions alone admit more vectors than there are subgroups.
        # S n = n rejects it, and the search returns the indicators only.
        q = {
            (x, y): Fraction(x * x - y * y, 8) % 1
            for x, y in product(range(4), range(4))
        }
        mg = MetricGroup(orders=(4, 4), q=q)
        md = metric_modular_data(mg)
        assert central_charge(md) == 0
        fake = [0] * md.rank
        fake[md.unit_index] = 1
        fake[mg.index((2, 2))] = 3
        fake = tuple(fake)
        theta = md.theta()
        dims = md.dims()
        dual = md.dual_permutation()
        support = [i for i, v in enumerate(fake) if v]
        assert all(theta[i] == theta[md.unit_index] for i in support)
        assert all(fake[dual[i]] == fake[i] for i in range(md.rank))
        assert fake[md.unit_index] == 1
        assert sum((dims[i] * fake[i] for i in support), ZERO) == md.total_dim()
        assert not s_invariant(md, fake)

        subs = lagrangian_subgroups(mg)
        indicators = sorted(subgroup_indicator(mg, s) for s in subs)
        found = candidate_search(md)
        assert len(subs) == 2
        assert fake not in found
        assert found == indicators

    @staticmethod
    def assert_search_equals_subgroups(mg, label):
        # S n = n and n_i <= floor(d_i) = 1 force the support to be an
        # isotropic subgroup with multiplicities 1, so the search must
        # lose no Lagrangian indicator and admit nothing else
        expected = sorted(subgroup_indicator(mg, s) for s in lagrangian_subgroups(mg))
        found = candidate_search(metric_modular_data(mg))
        for vec in expected:
            assert vec in found, (label, vec)
        assert found == expected, label

    @pytest.mark.parametrize(
        "seed,draws,min_forms", [(7, 200, 20), (2024, 10, 1)], ids=["seed7", "seed2024"]
    )
    def test_search_equals_subgroups_on_seeded_data(self, seed, draws, min_forms):
        rng = random.Random(seed)
        seen = set()  # equal forms recur often; each is searched once
        for _ in range(draws):
            mg = random_metric_group(rng, max_size=36)
            key = (mg.orders, tuple(sorted(mg.q.items())))
            if key in seen or milgram_signature(mg) != 0:
                continue
            seen.add(key)
            self.assert_search_equals_subgroups(mg, mg.orders)
        assert len(seen) >= min_forms

    def test_search_equals_subgroups_on_metric_fixtures(self):
        for name in corpus.fixture_names():
            mg = corpus.build(name).metric
            if mg is not None and milgram_signature(mg) == 0:
                self.assert_search_equals_subgroups(mg, name)


class TestExactSearchOracle:
    """The lattice-point search against the backtracking search it
    replaced (`tests.helpers.backtracking_candidates`), which caps
    multiplicities by min(16, D/d_i) instead of floor(d_i)."""

    @staticmethod
    def assert_matches_oracle(md, label):
        assert candidate_search(md) == backtracking_candidates(md), label

    def test_fixtures_and_doubles(self):
        for name in corpus.fixture_names():
            spec = corpus.build(name)
            if spec.modular is not None:
                self.assert_matches_oracle(spec.modular, name)
        for name in corpus.BASE_MODULAR_FIXTURES:
            self.assert_matches_oracle(double(corpus.build(name).modular), name)

    def test_rank_36_doubles(self):
        ising, semion, fib = (corpus.build(n).modular for n in ("ising", "semion", "fibonacci"))
        for label, base in (
            ("ising x semion", box_tensor(ising, semion)),
            ("ising x reverse(semion)", box_tensor(ising, reverse(semion))),
            ("ising x fibonacci", box_tensor(ising, fib)),
        ):
            md = double(base)
            assert md.rank == 36
            self.assert_matches_oracle(md, label)

    def test_seeded_pointed_data(self):
        rng = random.Random(64)
        seen = set()  # equal forms recur often; each is searched once
        for _ in range(200):
            mg = random_metric_group(rng, max_size=64)
            key = (mg.orders, tuple(sorted(mg.q.items())))
            if key in seen or milgram_signature(mg) != 0:
                continue
            seen.add(key)
            md = metric_modular_data(mg)
            assert candidate_search(md) == backtracking_candidates(md), mg.orders
        assert len(seen) >= 20

    def test_abelian_double_222_finds_all_30_subgroups_unhinted(self):
        # the backtracking search does not finish here within 3 M nodes
        mg = abelian_double((2, 2, 2))
        expected = sorted(subgroup_indicator(mg, s) for s in lagrangian_subgroups(mg))
        assert len(expected) == 30
        assert candidate_search(metric_modular_data(mg)) == expected


class TestVerdict:
    def test_fibonacci_no_boundary(self):
        report = verdict(corpus.fibonacci().modular)
        assert report.verdict == "NoBoundary_CentralCharge"
        assert report.central_charge == Fraction(14, 5)
        assert report.exact and not report.candidates

    def test_toric_with_hint_gives_exact_boundaries(self):
        spec = corpus.toric_code()
        report = verdict(spec.modular, pointed_hint=spec.metric)
        assert report.verdict == "ExactBoundaries"
        assert len(report.subgroups) == 2
        assert report.candidates == ((1, 1, 0, 0), (1, 0, 1, 0))
        assert report.exact

    def test_inconsistent_hint_is_rejected(self):
        spec = corpus.toric_code()
        with pytest.raises(InputError):
            verdict(spec.modular, pointed_hint=corpus.double_semion().metric)

    def test_no_candidate_verdict_on_z5(self):
        # q(x) = x^2/5 on Z5 has signature 0, so the gate passes, but
        # |A| = 5 is not a perfect square and no multiplicity vector
        # sums to sqrt(5)
        q = {(x,): Fraction(x * x, 5) % 1 for x in range(5)}
        md = metric_modular_data(MetricGroup(orders=(5,), q=q))
        report = verdict(md)
        assert report.verdict == "NoBoundary_NoCandidate"
        assert report.central_charge == 0
        assert report.exact

    def test_double_ising_candidates_found(self):
        report = verdict(double(corpus.ising().modular))
        assert report.verdict == "CandidatesFound"
        assert not report.exact
        diag = canonical_double_candidate(corpus.ising().modular)
        assert report.candidates == (diag,)

    def test_ring_less_data_derives_c_and_ring_once_per_verdict(self, monkeypatch):
        counts = {"verlinde_table": 0, "central_charge": 0}

        def counting(name, fn):
            def wrapper(md):
                counts[name] += 1
                return fn(md)

            return wrapper

        # every ring derivation (ring_from_verlinde, validate_modular)
        # runs through verlinde_table
        monkeypatch.setattr(
            modular, "verlinde_table", counting("verlinde_table", modular.verlinde_table)
        )
        monkeypatch.setattr(
            obstruction, "central_charge", counting("central_charge", central_charge)
        )
        base = double(corpus.toric_code().modular)
        md = ModularData(s=base.s, t=base.t, unit_index=base.unit_index)
        report = verdict(md)
        # the search reads S and T only, so no ring is derived
        assert len(report.candidates) > 1
        assert counts == {"verlinde_table": 0, "central_charge": 1}

    def test_caveat_always_present(self):
        for report in (
            verdict(corpus.semion().modular),
            verdict(double(corpus.ising().modular)),
        ):
            assert any("mod 8" in c for c in report.caveats)
            assert any("E8" in c for c in report.caveats)

    def test_two_tier_conditions_are_labeled(self):
        report = verdict(double(corpus.ising().modular))
        assert "theorem_level" in report.conditions
        assert "standard_theory_level" in report.conditions
        assert any("central charge" in c for c in report.conditions["theorem_level"])

    def test_reports_are_pinned_and_read_only(self):
        caveats = [
            "central charge known only mod 8 from modular data; "
            "deformation-class obstruction (cf. E8) invisible"
        ]
        conditions = {
            "standard_theory_level": [
                "support has trivial twists",
                "support is closed under duality",
                "unit multiplicity is 1",
                "total dimension of the candidate equals D",
                "multiplicity vector is fixed by S (S n = n)",
            ],
            "theorem_level": ["central charge vanishes mod 8"],
        }

        def pinned(name, c, candidates, exact, **extra):
            out = {"verdict": name, "central_charge": c, "candidates": candidates}
            return dict(out, exact=exact, caveats=caveats, conditions=conditions, **extra)

        toric = corpus.toric_code()
        z5 = MetricGroup(orders=(5,), q={(a,): Fraction(a * a, 5) for a in range(5)})
        cases = [
            (
                verdict(corpus.fibonacci().modular),
                pinned("NoBoundary_CentralCharge", "14/5 mod 8", [], True),
            ),
            (
                verdict(toric.modular, pointed_hint=toric.metric),
                pinned(
                    "ExactBoundaries",
                    "0 mod 8",
                    [[1, 1, 0, 0], [1, 0, 1, 0]],
                    True,
                    subgroups=[["0,0", "0,1"], ["0,0", "1,0"]],
                ),
            ),
            (
                verdict(double(corpus.ising().modular)),
                pinned("CandidatesFound", "0 mod 8", [[1, 0, 0, 0, 1, 0, 0, 0, 1]], False),
            ),
            (
                verdict(metric_modular_data(z5)),
                pinned("NoBoundary_NoCandidate", "0 mod 8", [], True),
            ),
        ]
        for report, want in cases:
            assert report.to_json_dict() == want, want["verdict"]
            for name in ("exact", "caveats", "conditions"):
                with pytest.raises(AttributeError):
                    setattr(report, name, getattr(report, name))
                with pytest.raises(TypeError):
                    ObstructionReport(report.verdict, report.central_charge, **{name: None})

    def test_reports_are_deterministic(self):
        md = double(corpus.ising().modular)
        a = json.dumps(verdict(md).to_json_dict(), sort_keys=True)
        b = json.dumps(verdict(md).to_json_dict(), sort_keys=True)
        assert a == b



def outcome(md) -> tuple:
    """("report", verdict(md) as JSON) or ("raises", type, message)."""
    try:
        return ("report", verdict(md).to_json_dict())
    except MtcError as exc:
        return ("raises", type(exc), str(exc))


def searched_outcome(md, monkeypatch) -> tuple:
    """`outcome` with the pointed route switched off: the search answers."""
    with monkeypatch.context() as mp:
        mp.setattr(obstruction, "lagrangian_candidates", lambda md: None)
        return outcome(md)


def group_ring_data(mg: MetricGroup, ring=None) -> ModularData:
    """S, T and the group ring of mg as they are, quadratic or
    degenerate (`metric_modular_data` refuses a degenerate form)."""
    if ring is None:
        ring = mg._derived(pointed._group_ring)
    return ModularData(
        s=mg._derived(pointed._s_entries), t=mg._derived(pointed._twists), ring=ring
    )


def law_ring(law: np.ndarray) -> FusionRing:
    """The ring with N_ab^c = 1 exactly when c = law[a, b], unit 0."""
    r = len(law)
    index = np.arange(r)
    table = np.stack(
        (np.repeat(index, r), np.tile(index, r), law.ravel(), np.ones(r * r, dtype=np.int64)),
        axis=1,
    )
    dual = np.argmax(law == 0, axis=1)
    return FusionRing.from_table(tuple(f"x{a}" for a in range(r)), (0,), tuple(dual.tolist()), table)


def non_associative_law() -> np.ndarray:
    """The law of (Z_2)^4 with the intercalate on labels 14, 15 swapped:
    a commutative Latin square with identity 0 that is not associative."""
    law = group_law((2,) * 4)
    law[14, 14] = law[15, 15] = law[14, 15]
    law[14, 15] = law[15, 14] = 0
    assert (law == law.T).all() and (np.sort(law, axis=1) == np.arange(16)).all()
    assert (law[law] != law[:, law].transpose(1, 0, 2)).any()  # (a b) c != a (b c)
    return law


def non_associative_data() -> ModularData:
    """S and T made from `non_associative_law` and e as for a metric
    group, with that law as the ring, so of the pointed route's
    preconditions only Light's test fails (the search then finds S^2 no
    permutation)."""
    law = non_associative_law()
    e = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    k = (e[law] - e[:, None] - e[None, :]) % 2
    s = FactoredMatrix.gathered(lambda x: from_angle(Fraction(-x, 2)) / 4, k)
    t = FactoredMatrix.gathered(lambda x: from_angle(Fraction(x, 2)), e)
    return ModularData(s=s, t=t, ring=law_ring(law))


class TestPointedRoute:
    """The unhinted verdict answers pointed data with a group ring by the
    Lagrangian-subgroup enumeration (`pointed.lagrangian_candidates`);
    the search it replaces there is the oracle."""

    @staticmethod
    def assert_route_equals_search(md, monkeypatch, label):
        assert outcome(md) == searched_outcome(md, monkeypatch), label

    def test_fixtures_and_base_doubles(self, monkeypatch):
        routed = 0
        for name in corpus.fixture_names():
            md = corpus.build(name).effective_modular()
            if md is not None:
                self.assert_route_equals_search(md, monkeypatch, name)
                routed += pointed.lagrangian_candidates(md) is not None
        for name in corpus.BASE_MODULAR_FIXTURES:
            md = double(corpus.build(name).modular)
            self.assert_route_equals_search(md, monkeypatch, f"double({name})")
        # every pointed fixture with c = 0 takes the route
        assert routed >= 8

    def test_one_value_in_two_slots(self, monkeypatch):
        # the lower triangle of S and the odd labels' twists at twice
        # their conductor: equal values in distinct slots
        md = metric_modular_data(abelian_double((3,)))
        twice = lambda x: x.embed(2 * x.conductor)
        s = [[twice(x) if a > c else x for c, x in enumerate(row)] for a, row in enumerate(md.s)]
        t = [twice(x) if a % 2 else x for a, x in enumerate(md.t)]
        mixed = ModularData(s=s, t=t, ring=md.ring)
        assert len(mixed.s.entries) > len(md.s.entries)
        assert pointed.lagrangian_candidates(mixed) == pointed.lagrangian_candidates(md)
        assert len(pointed.lagrangian_candidates(mixed)) == 2
        self.assert_route_equals_search(mixed, monkeypatch, "mixed")

    def test_seeded_groups_and_relabelled_copies(self, monkeypatch):
        rng = random.Random(2718)
        routed = 0
        for draw in range(200):
            md = metric_modular_data(random_metric_group(rng, max_size=64))
            # the same data with the unit moved off label 0
            perm = list(range(md.rank))
            rng.shuffle(perm)
            if perm[0] == md.unit_index and md.rank > 1:
                perm[0], perm[1] = perm[1], perm[0]
            moved = relabelled(md, perm)
            assert moved.unit_index != 0 or md.rank == 1
            for data in (md, moved):
                self.assert_route_equals_search(data, monkeypatch, (draw, data.unit_index))
            if central_charge_gate(md)[0]:
                routed += 1
                assert pointed.lagrangian_candidates(moved) is not None, draw
        assert routed >= 20

    def test_every_failed_precondition_falls_back_to_the_search(self, monkeypatch):
        toric = corpus.toric_code().modular
        cases = {}
        # (2) a ring that is not a group ring: tau tau = 1 + tau
        cases["non-group ring"] = ModularData(
            s=toric.s, t=toric.t, ring=corpus.double_fibonacci().modular.ring
        )
        # (2) the group ring with one multiplicity raised to 2
        table = toric.ring.table.copy()
        table[5, 3] = 2
        raised = FusionRing.from_table(toric.ring.labels, (0,), toric.ring.dual, table)
        cases["multiplicity 2"] = ModularData(s=toric.s, t=toric.t, ring=raised)
        # (2) the law of (Z_2)^4 with the intercalate on rows 1, 2 and
        # columns 4, 7 swapped: a Latin square that is not commutative
        law = group_law((2,) * 4)
        law[1, 4] = law[2, 7] = 6
        law[1, 7] = law[2, 4] = 5
        d22 = metric_modular_data(abelian_double((2, 2)))
        cases["non-commutative law"] = ModularData(s=d22.s, t=d22.t, ring=law_ring(law))
        # (3) a commutative Latin square with identity, not associative
        cases["non-associative law"] = non_associative_data()
        # (4) one S entry negated
        s = [list(row) for row in toric.s]
        s[1][2] = -s[1][2]
        cases["negated S entry"] = ModularData(s=s, t=toric.t, ring=toric.ring)
        # (4) every -1/2 of S read as i/2: still a function of K
        s = [[x if x == toric.s_unit else zeta(4) / 2 for x in row] for row in toric.s]
        cases["S off the pairing"] = ModularData(s=s, t=toric.t, ring=toric.ring)
        # (5) S and T of a q that is no quadratic form: K is not bilinear
        q = {(0,): 0, (1,): 0, (2,): Fraction(3, 4), (3,): Fraction(1, 4)}
        cases["non-quadratic twist"] = group_ring_data(MetricGroup(orders=(4,), q=q))
        q = {(0, 0): 0, (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        cases["non-bilinear pairing"] = group_ring_data(MetricGroup(orders=(2, 2), q=q))
        # (6) q(a + x) - q(x) for x isotropic on the double of Z_3: the
        # same bicharacter, c = 0, but q(-a) != q(a)
        d3 = abelian_double((3,))
        shifted = {a: d3.q[d3.add(a, (1, 0))] for a in d3.elements}
        cases["odd twist"] = group_ring_data(MetricGroup(orders=(3, 3), q=shifted))
        # (7) q = 0 on (Z_2)^2: every element pairs trivially with all
        cases["degenerate pairing"] = group_ring_data(
            MetricGroup(orders=(2, 2), q={a: 0 for a in product(range(2), repeat=2)})
        )
        # (1) D = -2
        cases["negative D"] = ModularData(
            s=[[-x for x in row] for row in toric.s], t=toric.t, ring=toric.ring
        )
        # (1) rank 3 with D^2 = -3: the Z_3 form q(x) = 2 x^2 / 3 (c = 6)
        # with S times i, which turns c to 0
        z3 = metric_modular_data(
            MetricGroup(orders=(3,), q={(0,): 0, (1,): Fraction(2, 3), (2,): Fraction(2, 3)})
        )
        cases["D^2 != r"] = ModularData(
            s=[[zeta(4) * x for x in row] for row in z3.s], t=z3.t, ring=z3.ring
        )
        # (2) r^2 rows, all N = 1, with the pair (1, 3) given twice and
        # the pair (1, 2) missing
        table = toric.ring.table.copy()
        row = np.flatnonzero((table[:, 0] == 1) & (table[:, 1] == 2))[0]
        table[row, 1:3] = 3
        twice = FusionRing.from_table(toric.ring.labels, (0,), toric.ring.dual, table)
        cases["pair given twice"] = ModularData(s=toric.s, t=toric.t, ring=twice)
        # (3) a max b on four labels: commutative with identity 0, and
        # no generating set of two labels
        law = np.maximum.outer(np.arange(4), np.arange(4))
        index = np.arange(4)
        table = np.stack((np.repeat(index, 4), np.tile(index, 4), law.ravel(), np.ones(16, int)), 1)
        semilattice = FusionRing.from_table(toric.ring.labels, (0,), toric.ring.dual, table)
        cases["max-semilattice law"] = ModularData(s=toric.s, t=toric.t, ring=semilattice)
        # (4) a twist that is no root of unity, and twists of order 16 > 2 r
        t = (toric.t[0], rational(2), toric.t[2], toric.t[3])
        cases["non-root twist"] = ModularData(s=toric.s, t=t, ring=toric.ring)
        t = (rational(1), zeta(16), -zeta(16), rational(1))
        cases["twist order past 2r"] = ModularData(s=toric.s, t=t, ring=toric.ring)
        for label, md in cases.items():
            assert pointed.lagrangian_candidates(md) is None, label
            self.assert_route_equals_search(md, monkeypatch, label)
        # the gate passes on these, so the fallback search answers them
        for label in (
            "non-group ring",
            "multiplicity 2",
            "non-commutative law",
            "non-associative law",
            "S off the pairing",
            "non-quadratic twist",
            "odd twist",
            "D^2 != r",
            "pair given twice",
            "max-semilattice law",
            "twist order past 2r",
        ):
            assert central_charge_gate(cases[label])[0], label

    def test_the_double_of_z2_to_the_4_is_answered_in_under_a_second(self):
        # the candidate search gave no answer here in 120 s
        mg = abelian_double((2,) * 4)
        md = metric_modular_data(mg)
        start = time.perf_counter()
        report = verdict(md)
        elapsed = time.perf_counter() - start
        hinted = verdict(md, pointed_hint=mg)
        assert report.verdict == "CandidatesFound"
        assert len(report.candidates) == 270
        assert list(report.candidates) == sorted(hinted.candidates)
        assert elapsed < 1.0, elapsed

    def test_light_test_checks_every_block(self, monkeypatch):
        # a budget of r^2 int16 entries puts one generator in each block
        # of Light's test
        law = non_associative_law()
        assert modular._generators(law, 0) == [1, 2, 4, 8]
        # (x g) y = x (g y) for every x, y holds for g = 1, not for g = 2
        light = lambda g: (law[law[:, g]] == law[:, law[g]]).all()
        assert light(1) and not light(2)
        md = non_associative_data()
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 2 * md.rank**2)
        assert pointed.lagrangian_candidates(md) is None
        self.assert_route_equals_search(md, monkeypatch, "non-associative law")
        # eight generators in eight blocks on the double of (Z_2)^4
        mg = abelian_double((2,) * 4)
        md = metric_modular_data(mg)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 2 * md.rank**2)
        found = pointed.lagrangian_candidates(md)
        assert len(found) == 270
        assert found == sorted(subgroup_indicator(mg, s) for s in lagrangian_subgroups(mg))

    def test_the_hinted_and_unhinted_orders(self):
        # the hint lists the indicators in subgroup order, the route sorts
        # them; on these groups the two orders differ ten times, and the
        # hinted order is always the sorted one reversed
        # (`pointed.lagrangian_answer` has the proof)
        groups = [corpus.build(name).metric for name in corpus.fixture_names()]
        groups = [mg for mg in groups if mg is not None]
        groups += [abelian_double(orders) for orders in ((2,), (3,), (4,), (2, 2), (2, 3))]
        rng = random.Random(5)
        groups += [random_metric_group(rng) for _ in range(100)]
        passed = differ = 0
        for mg in groups:
            md = metric_modular_data(mg)
            if not central_charge_gate(md)[0]:
                continue
            passed += 1
            hinted = tuple(subgroup_indicator(mg, s) for s in lagrangian_subgroups(mg))
            assert verdict(md, pointed_hint=mg).candidates == hinted, mg.orders
            assert verdict(md).candidates == tuple(sorted(hinted)), mg.orders
            assert verdict(md).candidates == hinted[::-1], mg.orders
            differ += list(hinted) != sorted(hinted)
        assert (passed, differ) == (39, 10)

    def test_a_refused_enumeration_is_a_size_limit(self, monkeypatch):
        monkeypatch.setattr(pointed, "HELD_POSITIONS_CAP", 1000)
        with pytest.raises(SizeLimit, match="more than 1000 subgroup positions"):
            verdict(metric_modular_data(abelian_double((2,) * 4)))


def hinted_outcome(route, make_md, hint):
    """route(md, hint) on a fresh md, as its report's JSON dict or as the
    type and message of the MtcError it raised."""
    try:
        return route(make_md(), hint).to_json_dict()
    except MtcError as exc:
        return type(exc), str(exc)


class TestHintedCharge:
    """A hint that regenerates md gives c by its Milgram sum; the verdict
    must be that of the gate-first branch (`gate_first_pointed_verdict`),
    report or exception.  Each route gets a datum of its own, so neither
    reads a c the other cached on it."""

    def assert_same(self, make_md, hint):
        want = hinted_outcome(gate_first_pointed_verdict, make_md, hint)
        got = hinted_outcome(lambda md, hint: verdict(md, pointed_hint=hint), make_md, hint)
        assert got == want, hint.to_json_dict()
        return want

    @staticmethod
    def label(outcome):
        return outcome["verdict"] if isinstance(outcome, dict) else outcome[0].__name__

    def test_metric_fixtures_from_their_files(self):
        names = [n for n in corpus.fixture_names() if '"metric_group"' in corpus.shipped_text(n)]
        assert len(names) == 5
        labels = set()
        for name in names:
            hint = corpus.load_shipped(name).metric
            labels.add(
                self.label(
                    self.assert_same(lambda: corpus.load_shipped(name).effective_modular(), hint)
                )
            )
        assert labels == {"ExactBoundaries", "NoBoundary_CentralCharge"}

    def test_seeded_metric_groups(self):
        rng = random.Random(33)
        labels = []
        for _ in range(300):
            mg = random_metric_group(rng)
            labels.append(self.label(self.assert_same(lambda: metric_modular_data(mg), mg)))
        assert labels.count("ExactBoundaries") >= 50
        assert labels.count("NoBoundary_CentralCharge") >= 100

    def test_hyperbolic_doubles(self):
        for orders in ((2, 2), (3, 3), (2, 2, 2), (4, 4), (2, 2, 2, 2)):
            mg = abelian_double(orders)
            got = self.assert_same(lambda: metric_modular_data(mg), mg)
            assert got["verdict"] == "ExactBoundaries" and got["subgroups"], orders

    def test_tables_that_are_not_quadratic_forms(self):
        # Milgram's sum of such a table is seldom a root of unity times
        # sqrt|A|: milgram_signature raises, and the gate decides
        rng = random.Random(34)
        labels = []
        for _ in range(200):
            mg = random_q_table(rng)
            labels.append(self.label(self.assert_same(lambda: metric_modular_data(mg), mg)))
        assert labels.count("NotRootOfUnity") >= 150
        assert labels.count("NoBoundary_CentralCharge") >= 20

    def test_hints_that_do_not_regenerate_the_data(self):
        # c = 1 fails the gate before the hint is looked at
        semion = corpus.semion().modular
        toric_hint = corpus.toric_code().metric
        got = self.assert_same(lambda: semion, toric_hint)
        assert got["verdict"] == "NoBoundary_CentralCharge" and got["central_charge"] == "1 mod 8"
        # c = 0 passes it, and the hint is refused
        toric = corpus.toric_code().modular
        got = self.assert_same(lambda: toric, corpus.double_semion().metric)
        assert got[0] is InputError

    def test_caps_patched_low(self, monkeypatch):
        monkeypatch.setattr(pointed, "SUBGROUP_SIZE_CAP", 8)
        small, large = abelian_double((2,)), abelian_double((2, 2))
        got = self.assert_same(lambda: metric_modular_data(small), small)
        assert got["verdict"] == "ExactBoundaries"
        got = self.assert_same(lambda: metric_modular_data(large), large)
        assert got[0] is SizeLimit
        monkeypatch.undo()
        monkeypatch.setattr(pointed, "HELD_POSITIONS_CAP", 1000)
        mg = abelian_double((2,) * 4)
        got = self.assert_same(lambda: metric_modular_data(mg), mg)
        assert got[0] is SizeLimit and "more than 1000 subgroup positions" in got[1]

    def test_a_matched_hint_does_not_run_the_gate(self, monkeypatch):
        def refuse(md):
            raise AssertionError("the gate's central_charge ran")

        monkeypatch.setattr(obstruction, "central_charge", refuse)
        mg = corpus.toric_code().metric
        report = verdict(metric_modular_data(mg), pointed_hint=mg)
        assert report.verdict == "ExactBoundaries"
        assert report.central_charge == 0 and len(report.subgroups) == 2

    def test_galois_conjugate_hints(self):
        # a q for a prime to M vanishes where q does, so (A, a q) has the
        # Lagrangian subgroups of (A, q); its c may differ
        rng = random.Random(35)
        conjugates = with_subgroups = moved = 0
        for _ in range(100):
            mg = random_metric_group(rng)
            base = verdict(metric_modular_data(mg), pointed_hint=mg)
            m = math.lcm(*(v.denominator for v in mg.q.values()))
            units = [a for a in range(2, m) if math.gcd(a, m) == 1]
            for a in rng.sample(units, min(6, len(units))):
                conj = MetricGroup(orders=mg.orders, q={x: a * v for x, v in mg.q.items()})
                report = verdict(metric_modular_data(conj), pointed_hint=conj)
                assert report.subgroups == base.subgroups, (mg.to_json_dict(), a)
                assert set(report.candidates) == set(base.candidates), (mg.to_json_dict(), a)
                assert report.central_charge == central_charge(metric_modular_data(conj))
                conjugates += 1
                with_subgroups += bool(report.subgroups)
                moved += report.central_charge != base.central_charge
        assert conjugates >= 400 and with_subgroups >= 50 and moved >= 100
