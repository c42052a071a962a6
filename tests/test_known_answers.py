"""Known answers beyond the shipped fixtures: the Lagrangian algebras of
SU(2)_k x SU(2)_k^rev, and Galois conjugates of modular data.

Lagrangian algebras in SU(2)_k x SU(2)_k^rev are the CIZ modular
invariants (Cappelli-Itzykson-Zuber, Commun. Math. Phys. 113 (1987) 1;
Kirillov-Ostrik, arXiv:math/0101219).  sigma_a in Gal(Q(zeta_N)/Q)
maps the modular data of a category to those of its conjugate, and a
Drinfeld center to a Drinfeld center; S n = n holds over Q iff
sigma_a(S) n = n, so a conjugate that validates keeps the verdict and
every candidate.
"""

import math
import random
from fractions import Fraction

import pytest

from mtcbound import corpus
from mtcbound.modular import FactoredMatrix, ModularData, central_charge, double, validate_modular
from mtcbound.obstruction import verdict
from mtcbound.pointed import metric_modular_data
from tests.helpers import ciz_invariants, galois_conjugate, random_metric_group, su2


def seeded_metric_conjugates() -> list:
    """[(base, conjugate, negated)]: `galois_conjugate` of the data of 100
    seeded `random_metric_group` draws (seed 7), by the first three units
    a > 1 prime to each conductor."""
    rng = random.Random(7)
    out = []
    for _ in range(100):
        md = metric_modular_data(random_metric_group(rng, max_size=36))
        n = md.conductor()
        for a in [a for a in range(2, n) if math.gcd(a, n) == 1][:3]:
            out.append((md, *galois_conjugate(md, a)))
    return out


class TestSu2:
    @pytest.mark.parametrize("k", [4, 10])
    def test_su2_alone_fails_the_gate_with_c_3k_over_k_plus_2(self, k):
        md = su2(k)
        assert md.rank == k + 1
        assert validate_modular(md).ok
        c = Fraction(3 * k, k + 2) % 8
        assert central_charge(md) == c == {4: 2, 10: Fraction(5, 2)}[k]
        report = verdict(md)
        assert (report.verdict, report.central_charge) == ("NoBoundary_CentralCharge", c)

    @pytest.mark.parametrize("k, names", [(4, ["A", "D"]), (10, ["A", "D", "E6"])])
    def test_the_double_gives_exactly_the_ciz_invariants(self, k, names):
        # A_5, D_4 at k = 4; A_11, D_7, E_6 at k = 10
        md = double(su2(k))
        assert md.rank == (k + 1) ** 2
        assert validate_modular(md).ok
        invariants = ciz_invariants(k)
        assert sorted(invariants) == names
        report = verdict(md)
        assert report.verdict == "CandidatesFound"
        assert report.candidates == tuple(sorted(invariants.values()))


class TestGaloisConjugates:
    def test_conjugates_that_validate_keep_the_verdict(self):
        # the first six units a > 1 prime to each conductor
        data = [(name, corpus.build(name).modular) for name in corpus.fixture_names()]
        data = [(name, md) for name, md in data if md is not None]
        assert len(data) == 13
        data.append(("double(su2(4))", double(su2(4))))
        conjugates = valid = negated = unpositive = 0
        for name, md in data:
            n = md.conductor()
            base = verdict(md)
            for a in [a for a in range(2, n) if math.gcd(a, n) == 1][:6]:
                conj, flipped = galois_conjugate(md, a)
                conjugates += 1
                report = validate_modular(conj)
                if report.ok:
                    valid += 1
                    negated += flipped
                    got = verdict(conj)
                    assert (got.verdict, got.candidates) == (base.verdict, base.candidates), (name, a)
                else:
                    # non-pseudo-unitary conjugates, like Fibonacci's Yang-Lee one
                    failed = [c.name for c in report.checks if not c.ok]
                    assert failed == ["dims_real_positive"], (name, a, failed)
                    unpositive += 1
        assert (conjugates, valid, negated, unpositive) == (37, 17, 4, 20)

    def test_conjugates_of_seeded_metric_data(self):
        # sigma_a maps (A, q) to (A, a q), with the same Lagrangian
        # subgroups.  Negating S negates tau+/D, so c moves by 4; a global
        # dimension is totally positive (Etingof-Nikshych-Ostrik, 2005),
        # so a Drinfeld center is never negated, and the negated
        # conjugates here (sigma_a(sqrt |A|) = -sqrt |A|) keep an exact NO
        conjugates = negated_count = moved = 0
        for md, conj, negated in seeded_metric_conjugates():
            assert validate_modular(conj).ok
            base, got = verdict(md), verdict(conj)
            conjugates += 1
            if not negated:
                assert (got.verdict, got.candidates) == (base.verdict, base.candidates)
                continue
            negated_count += 1
            s = FactoredMatrix(tuple(-x for x in conj.s.entries), conj.s.slots)
            unnegated = ModularData(s=s, t=conj.t, unit_index=conj.unit_index, ring=conj.ring)
            assert got.central_charge == (central_charge(unnegated) + 4) % 8
            assert got.verdict.startswith("NoBoundary_") and base.verdict.startswith("NoBoundary_")
            moved += (got.verdict, got.candidates) != (base.verdict, base.candidates)
        # 278 keep verdict and candidates; the 18 that move, forms on
        # Z_5, Z_7 x Z_3 and Z_6 x Z_2, trade NoCandidate at c = 0 and
        # CentralCharge at c = 4
        assert (conjugates, negated_count, moved) == (296, 93, 18)
