"""Known answers beyond the shipped fixtures: the Lagrangian algebras of
SU(2)_k x SU(2)_k^rev, two conformal embeddings, and Galois conjugates
of modular data.

Lagrangian algebras in SU(2)_k x SU(2)_k^rev are the CIZ modular
invariants (Cappelli-Itzykson-Zuber, Commun. Math. Phys. 113 (1987) 1;
Kirillov-Ostrik, arXiv:math/0101219).  sigma_a in Gal(Q(zeta_N)/Q)
maps the modular data of a category to those of its conjugate, and a
Drinfeld center to a Drinfeld center; S n = n holds over Q iff
sigma_a(S) n = n, so a conjugate that validates keeps the verdict and
every candidate.

A conformal embedding V of level k in W of level 1 gives the Lagrangian
algebra of SU(2)_k x W^rev that sums (j, w) over the pairs where the
representation w of W restricts to contain j: SU(2)_4 in SU(3)_1 the D_4
invariant, where spin 1 (j = 2) splits into the two nontrivial
representations of Z_3, and SU(2)_28 in (G_2)_1, whose modular data are
Fibonacci's (c = 14/5), the E_8 invariant (Cappelli-Itzykson-Zuber;
Kirillov-Ostrik, arXiv:math/0101219).  Neither datum is pointed, so
the search answers both.
"""

import math
import random
from fractions import Fraction

import pytest

from mtcbound import corpus
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    box_tensor,
    central_charge,
    double,
    reverse,
    validate_modular,
)
from mtcbound.obstruction import verdict
from mtcbound.pointed import MetricGroup, metric_modular_data
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


def su3_level_1() -> ModularData:
    """SU(3)_1: the metric group Z_3 with q(1) = q(2) = 1/3 (c = 2)."""
    q = {(0,): 0, (1,): Fraction(1, 3), (2,): Fraction(1, 3)}
    return metric_modular_data(MetricGroup(orders=(3,), q=q))


def embedding_vector(pairs: dict, right_rank: int, rank: int) -> tuple:
    """The multiplicity vector with 1 at label j right_rank + w of each
    pair (j, w) of a product whose right factor has right_rank labels."""
    vector = [0] * rank
    for j, w in pairs:
        vector[j * right_rank + w] = 1
    return tuple(vector)


class TestConformalEmbeddings:
    def test_su2_4_times_su3_1_reversed_gives_exactly_d4(self):
        # (0, 0) + (2, 1) + (2, 2) + (4, 0): h_2 = 1/3 = q(1) = q(2) and h_4 = 1
        md = box_tensor(su2(4), reverse(su3_level_1()))
        assert md.rank == 15 and validate_modular(md).ok
        report = verdict(md)
        assert (report.verdict, report.central_charge) == ("CandidatesFound", 0)
        d4 = embedding_vector({(0, 0), (2, 1), (2, 2), (4, 0)}, 3, 15)
        assert report.candidates == (d4,)

    def test_su2_28_times_fibonacci_reversed_gives_exactly_e8(self):
        # {0, 10, 18, 28} x 1 plus {6, 12, 16, 22} x tau: h_j = j (j + 2) / 120
        # is an integer at the first four and 2/5 = h_tau mod 1 at the others
        fibonacci = corpus.build("fibonacci").modular
        assert fibonacci.ring.labels == ("1", "tau")
        md = box_tensor(su2(28), reverse(fibonacci))
        assert md.rank == 58 and validate_modular(md).ok
        report = verdict(md)
        assert (report.verdict, report.central_charge) == ("CandidatesFound", 0)
        pairs = {(j, 0) for j in (0, 10, 18, 28)} | {(j, 1) for j in (6, 12, 16, 22)}
        assert report.candidates == (embedding_vector(pairs, 2, 58),)


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
