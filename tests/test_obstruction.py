import json
import random
from fractions import Fraction
from itertools import product

import pytest

from mtcbound import corpus
from mtcbound.cyclotomic import ZERO
from mtcbound.errors import InputError, SearchBudgetExceeded
from mtcbound import modular, obstruction
from mtcbound.modular import ModularData, box_tensor, central_charge, double, reverse
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
from tests.helpers import backtracking_candidates, random_metric_group, s_invariant


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

    def test_budget_is_enforced(self):
        # four free columns there, so about 80 nodes; double(ising) has
        # none and its two forced nodes stay under any budget >= 2
        md = double(corpus.toric_code().modular)
        with pytest.raises(SearchBudgetExceeded):
            candidate_search(md, budget=3)

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

    def test_reports_are_deterministic(self):
        md = double(corpus.ising().modular)
        a = json.dumps(verdict(md).to_json_dict(), sort_keys=True)
        b = json.dumps(verdict(md).to_json_dict(), sort_keys=True)
        assert a == b

