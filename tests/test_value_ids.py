"""Value ids: one integer per distinct value of a `FactoredMatrix`.

Distinct slots of one matrix may hold one value at different conductors
(zeta_4 and zeta_8^2).  The symmetry check of S, the twists' dual
invariance, the ring route's conj(S) = C S and the search's theta_i = 1
compare `FactoredMatrix.value_ids` gathered by slot.  Here the ids are
checked against pairwise `Cyclotomic ==`, and every modular fixture and
the rank-144 double are re-embedded in part at twice their conductor:
the lower triangle of S and the twists of the odd labels, or the twist
of the first label of each dual pair.  Reports, routes, searches and
verdicts must not change.
"""

import random

import numpy as np
import pytest

from mtcbound import corpus, modular
from mtcbound.cyclotomic import Cyclotomic, zeta
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    _twist_exponents,
    _value_ids,
    box_tensor,
    double,
    validate_modular,
)
from mtcbound.obstruction import candidate_search, verdict
from tests.helpers import at_twice, mixed
from tests.test_ring_route import modular_fixtures


def rank_144() -> ModularData:
    return double(box_tensor(corpus.build("toric_code").modular, corpus.build("ising").modular))


def pairs_mixed(md: ModularData) -> ModularData:
    """The twist of the first label of each dual pair at twice its
    conductor: the two twists of a pair in two slots."""
    dual = md.ring.dual
    t = [at_twice(x) if i < dual[i] else x for i, x in enumerate(md.t)]
    return ModularData(s=md.s, t=t, unit_index=md.unit_index, ring=md.ring)


def entry_negated(md: ModularData, i: int, j: int) -> ModularData:
    s = [list(row) for row in md.s]
    s[i][j] = -s[i][j]
    return ModularData(s=s, t=md.t, unit_index=md.unit_index, ring=md.ring)


def seeded_values(rng: random.Random, count: int) -> list:
    """Values at conductors dividing 24 with small coefficients, many of
    them repeated in value at twice their conductor."""
    values = []
    for _ in range(count):
        if values and rng.random() < 0.4:
            x = rng.choice(values)
            values.append(x.embed(2 * x.conductor))
            continue
        n = rng.choice((1, 2, 3, 4, 6, 12))
        x = sum((rng.randint(-2, 2) * zeta(n, k) for k in range(rng.randint(1, 3))), zeta(n, 0))
        values.append(x * Cyclotomic.from_rational(rng.choice((1, 2, 3)) ** -1))
    return values


CASES = modular_fixtures() + [("rank-144 double", rank_144())]


class TestValueIds:
    def test_ids_against_pairwise_equality(self):
        rng = random.Random(2121)
        for _ in range(40):
            values = seeded_values(rng, rng.randint(1, 30))
            m = FactoredMatrix.vector(values)
            ids = m.value_ids()[m.slots].tolist()
            assert len(m.entries) >= len(set(ids))
            for a, x in enumerate(values):
                for b, y in enumerate(values):
                    assert (ids[a] == ids[b]) == (x == y), (x, y)

    def test_rows_beyond_int64(self):
        # object rows of Python integers: equal rows, one id
        big = 2**80
        rows = np.array([[big, 1], [big + 1, 1], [big, 1], [1, big]], dtype=object)
        assert _value_ids(rows).tolist() == [0, 1, 0, 2]

    def test_mixed_data_hold_one_value_in_several_slots(self):
        def grew(axis):
            return {
                label
                for label, md in CASES
                if len(getattr(mixed(md), axis).entries) > len(getattr(md, axis).entries)
            }

        assert grew("s") == {
            "semion",
            "ising",
            "fibonacci",
            "d_z3",
            "double_ising",
            "double_fibonacci",
            "rank-144 double",
        }
        assert grew("t") == {"double_of_double_semion", "rank-144 double"}


class TestMixedRepresentations:
    @pytest.mark.parametrize("label, md", CASES, ids=[label for label, _ in CASES])
    def test_reports_equal(self, label, md):
        assert validate_modular(mixed(md)).to_json_dict() == validate_modular(md).to_json_dict()

    @pytest.mark.parametrize("label, md", CASES, ids=[label for label, _ in CASES])
    def test_the_ring_route_is_taken(self, label, md, monkeypatch):
        def refuse(*args):
            raise AssertionError("full route taken")

        monkeypatch.setattr(modular, "verlinde_table", refuse)
        monkeypatch.setattr(modular, "_balancing_sides", refuse)
        for data in (mixed(md), pairs_mixed(md)):
            assert validate_modular(data).ok
            # the pointed fixtures take the pointed certificate there; the
            # checks one by one take the ring route on every fixture
            assert modular._axiom_checks(data).ok

    def test_dual_twists_in_two_slots(self):
        # only d_z3 has a dual pair with an irrational twist; its twists
        # are dual invariant in value, not in slot
        split = [label for label, md in CASES if len(pairs_mixed(md).t.entries) > len(md.t.entries)]
        assert split == ["d_z3"]
        md = dict(CASES)["d_z3"]
        assert validate_modular(pairs_mixed(md)).to_json_dict() == validate_modular(md).to_json_dict()

    @pytest.mark.parametrize("label, md", CASES, ids=[label for label, _ in CASES])
    def test_search_and_verdict_unchanged(self, label, md):
        other = mixed(md)
        trivial = [(_twist_exponents(data)[2] == 0).tolist() for data in (other, md)]
        assert trivial[0] == trivial[1]
        assert candidate_search(other) == candidate_search(md)
        assert verdict(other).to_json_dict() == verdict(md).to_json_dict()

    @pytest.mark.parametrize("label, md", CASES, ids=[label for label, _ in CASES])
    def test_an_asymmetric_tamper_names_the_same_entry(self, label, md):
        # a failure's detail may print a value at the packed conductor,
        # so the failed names are compared, and the symmetry check whole
        r = md.rank
        for i, j in ((r - 1, 0), (r - 1, r - 2)):
            if not 0 <= j < i or md.s[i][j].is_zero():
                continue
            got = validate_modular(entry_negated(mixed(md), i, j))
            want = validate_modular(entry_negated(md, i, j))
            assert got.failed_names() == want.failed_names()
            checks = [
                next(c for c in report.to_json_dict()["checks"] if c["name"] == "s_symmetric")
                for report in (got, want)
            ]
            assert checks[0] == checks[1] == {"name": "s_symmetric", "ok": False, "where": [j, i]}
