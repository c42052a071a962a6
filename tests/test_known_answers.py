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
from fractions import Fraction

import pytest

from mtcbound import corpus
from mtcbound.modular import central_charge, double, validate_modular
from mtcbound.obstruction import verdict
from tests.helpers import ciz_invariants, galois_conjugate, su2


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
