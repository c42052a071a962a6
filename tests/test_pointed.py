import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import corpus
from mtcbound.errors import ConductorLimitError, Degenerate, InputError, SizeLimit
from mtcbound.fusion import FusionRing
from mtcbound.modular import ModularData, central_charge, validate_modular, verlinde
from mtcbound.pointed import (
    MetricGroup,
    abelian_double,
    lagrangian_subgroups,
    matches_modular_data,
    metric_modular_data,
    milgram_signature,
    subgroup_indicator,
    validate_metric,
)
from mtcbound.specfile import CategorySpecFile

from tests.helpers import (
    brute_force_lagrangians,
    closure_growth_lagrangians,
    fraction_radical,
    fraction_validate_metric,
    per_entry_metric_modular_data,
    per_element_milgram_signature,
    per_entry_pack,
    random_metric_group,
)


def toric_mg():
    return corpus.toric_code().metric


def dsem_mg():
    return corpus.double_semion().metric


class TestStructure:
    def test_missing_element_rejected(self):
        with pytest.raises(InputError):
            MetricGroup(orders=(2,), q={(0,): Fraction(0)})

    def test_extra_element_rejected(self):
        with pytest.raises(InputError):
            MetricGroup(
                orders=(2,),
                q={(0,): Fraction(0), (1,): Fraction(0), (2,): Fraction(0)},
            )

    def test_values_reduced_mod_1(self):
        mg = MetricGroup(orders=(2,), q={(0,): Fraction(0), (1,): Fraction(5, 4)})
        assert mg.qval((1,)) == Fraction(1, 4)

    def test_json_round_trip(self):
        mg = dsem_mg()
        again = MetricGroup.from_json_dict(mg.to_json_dict())
        assert again.orders == mg.orders and again.q == mg.q

    def test_bad_json_key(self):
        with pytest.raises(InputError):
            MetricGroup.from_json_dict({"orders": [2], "q": {"x": "0"}})

    def test_bad_json_value(self):
        with pytest.raises(InputError):
            MetricGroup.from_json_dict({"orders": [2], "q": {"0": "1/4", "1": "a/b"}})


class TestValidation:
    def test_fixtures_pass(self):
        for name in ("trivial", "semion", "double_semion", "toric_code", "d_z3"):
            mg = corpus.build(name).metric
            report = validate_metric(mg)
            assert report.ok, (name, report.failed_names())

    def test_linear_form_is_not_quadratic(self):
        # q(x) = x/4 on Z4 fails q(2x) = 4 q(x)
        mg = MetricGroup(orders=(4,), q={(x,): Fraction(x, 4) for x in range(4)})
        report = validate_metric(mg)
        assert "q_is_quadratic" in report.failed_names()

    def test_non_descending_form_rejected(self):
        # q(e) = 1/3 on Z2: 2*2*(1/3) is not an integer
        mg = MetricGroup(orders=(2,), q={(0,): Fraction(0), (1,): Fraction(1, 3)})
        report = validate_metric(mg)
        assert "q_descends_to_quotient" in report.failed_names()

    def test_degenerate_form_flagged_and_raises(self):
        q = {a: Fraction(0) for a in product(range(2), range(2))}
        mg = MetricGroup(orders=(2, 2), q=q)
        assert "nondegenerate" in validate_metric(mg).failed_names()
        with pytest.raises(Degenerate):
            metric_modular_data(mg)
        with pytest.raises(Degenerate):
            milgram_signature(mg)


def checks(report) -> list:
    """(name, ok, where) of every check: what a report's output is made of."""
    return [(c.name, c.ok, c.where) for c in report.checks]


# shapes with a square order, so that Lagrangian subgroups can exist
SQUARE_SHAPES = (
    (4,), (2, 2), (9,), (3, 3), (16,), (4, 4), (2, 8), (2, 2, 2, 2), (25,), (5, 5),
    (36,), (6, 6), (2, 3, 6), (49,), (64,), (8, 8), (2, 4, 8), (4, 16), (2, 2, 16),
)


def sparse_q_table(rng, orders) -> MetricGroup:
    """q(0) = 0 and a seeded share of zeros elsewhere, the rest random
    fractions: almost never quadratic, with many isotropic elements."""
    den = rng.choice((2, 3, 4, 6, 8))
    zeros = rng.random()
    q = {}
    for a in product(*(range(n) for n in orders)):
        if not any(a) or rng.random() < zeros:
            q[a] = Fraction(0)
        else:
            q[a] = Fraction(rng.randrange(den), den)
    return MetricGroup(orders=orders, q=q)


class TestValidationOracle:
    """`validate_metric` on integer arrays against its `Fraction` route."""

    def test_seeded_forms_and_tables(self):
        rng = random.Random(2718)
        for _ in range(100):
            mg = random_metric_group(rng, max_size=64)
            assert checks(validate_metric(mg)) == checks(fraction_validate_metric(mg)), mg.orders
            assert mg.radical() == fraction_radical(mg)
        for _ in range(50):
            mg = sparse_q_table(rng, rng.choice(SQUARE_SHAPES))
            assert checks(validate_metric(mg)) == checks(fraction_validate_metric(mg)), mg.orders

    DESIGNED = {
        "q_zero_at_zero": ((2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 4)}),
        "q_descends_to_quotient": ((2,), {(0,): 0, (1,): Fraction(1, 3)}),
        "q_is_quadratic": ((4,), {(x,): Fraction(x, 4) for x in range(4)}),
        # the semion form on the first factor, zero on the second: the
        # radical is {(0, 0), (0, 1)}
        "nondegenerate": ((2, 2), {(a, b): Fraction(a, 4) for a in range(2) for b in range(2)}),
    }

    @pytest.mark.parametrize("failure", sorted(DESIGNED))
    def test_designed_failures(self, failure):
        orders, q = self.DESIGNED[failure]
        mg = MetricGroup(orders=orders, q=q)
        report = validate_metric(mg)
        assert failure in report.failed_names()
        assert checks(report) == checks(fraction_validate_metric(mg))
        if failure == "nondegenerate":
            assert report.checks[-1].where == ((0, 1),) == (fraction_radical(mg)[1],)

    def test_huge_denominator_takes_python_integers(self):
        # M = 10^30 + 1 puts M (sum (n_u - 1))^2 far above 2^63
        mg = MetricGroup(
            orders=(4, 4),
            q={(a, b): Fraction(a * b, 10**30 + 1) for a in range(4) for b in range(4)},
        )
        assert checks(validate_metric(mg)) == checks(fraction_validate_metric(mg))
        assert mg.radical() == fraction_radical(mg)


class TestModularBridge:
    def test_generated_data_validates(self):
        for name in ("semion", "toric_code", "double_semion", "d_z3"):
            md = metric_modular_data(corpus.build(name).metric)
            assert validate_modular(md).ok, name

    def test_verlinde_recovers_group_law(self):
        mg = dsem_mg()
        md = metric_modular_data(mg)
        expected = {
            (mg.index(a), mg.index(b), mg.index(mg.add(a, b))): 1
            for a in mg.elements
            for b in mg.elements
        }
        assert verlinde(md) == expected

    def test_matches_modular_data_rejects_tamper(self):
        mg = toric_mg()
        md = metric_modular_data(mg)
        t = list(md.t)
        t[3] = t[0]
        from mtcbound.modular import ModularData

        bad = ModularData(s=md.s, t=tuple(t), unit_index=md.unit_index, ring=md.ring)
        assert matches_modular_data(mg, md)
        assert not matches_modular_data(mg, bad)

    def test_matches_modular_data_rejects_s_and_ring_tampers(self):
        # d_z3 has non-real S entries and a dual that is no identity
        mg = corpus.d_z3().metric
        md = metric_modular_data(mg)
        assert matches_modular_data(mg, md)

        def with_s(rows):
            return ModularData(s=rows, t=md.t, unit_index=md.unit_index, ring=md.ring)

        def with_ring(**changes):
            fields = {
                "labels": md.ring.labels,
                "unit": md.ring.unit,
                "dual": md.ring.dual,
                "fusion": md.ring.fusion,
            }
            fields.update(changes)
            ring = FusionRing(**fields)
            return ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=ring)

        i, j = next(
            (i, j)
            for i in range(md.rank)
            for j in range(i + 1, md.rank)
            if md.s[i][j].conj() != md.s[i][j]
        )
        rows = [list(row) for row in md.s]
        rows[i][j], rows[j][i] = rows[i][j].conj(), rows[j][i].conj()
        assert not matches_modular_data(mg, with_s(tuple(map(tuple, rows))))
        assert not matches_modular_data(mg, with_s(tuple(tuple(-e for e in row) for row in md.s)))

        fusion = dict(md.ring.fusion)
        a, b, c = key = next(iter(fusion))
        del fusion[key]
        fusion[(a, b, (c + 1) % md.rank)] = 1
        assert not matches_modular_data(mg, with_ring(fusion=fusion))

        dual = list(md.ring.dual)
        assert dual[1] != dual[2]
        dual[1], dual[2] = dual[2], dual[1]
        assert not matches_modular_data(mg, with_ring(dual=tuple(dual)))

        t = list(md.t)
        k = next(k for k in range(md.rank) if t[k].conj() != t[k])
        t[k] = t[k].conj()
        tampered = ModularData(s=md.s, t=tuple(t), unit_index=md.unit_index, ring=md.ring)
        assert not matches_modular_data(mg, tampered)

        fusion = dict(md.ring.fusion)
        fusion[next(iter(fusion))] = 2
        assert not matches_modular_data(mg, with_ring(fusion=fusion))

        fusion = dict(md.ring.fusion)
        del fusion[next(iter(fusion))]
        assert not matches_modular_data(mg, with_ring(fusion=fusion))


def entries(values) -> list:
    """(conductor, nums, den) of each scalar: what its JSON is made of."""
    return [(e.conductor, e.nums, e.den) for e in values]


def assert_same_as_per_entry(mg, label, compare_json=False):
    """The construction against its entry-by-entry oracle: equal S and T
    entries, ring and unit (so equal JSON; compared as bytes when
    compare_json), and equal packed S from the deduplicating and the
    per-entry pack."""
    md = metric_modular_data(mg)
    oracle = per_entry_metric_modular_data(mg)
    assert [entries(row) for row in md.s] == [entries(row) for row in oracle.s], label
    assert entries(md.t) == entries(oracle.t), label
    assert md.unit_index == oracle.unit_index, label
    assert md.ring.to_json_dict() == oracle.ring.to_json_dict(), label
    assert list(md.ring.fusion) == list(oracle.ring.fusion), label
    if compare_json:
        assert json.dumps(md.to_json_dict(), sort_keys=True) == json.dumps(
            oracle.to_json_dict(), sort_keys=True
        ), label
    packed, expected = md.packed_s(), per_entry_pack(oracle.s)
    assert (packed.conductor, packed.den) == (expected.conductor, expected.den), label
    assert packed.nums.dtype == expected.nums.dtype, label
    assert (packed.nums == expected.nums).all(), label


class TestConstructionOracle:
    def test_metric_fixtures_and_doubles(self):
        for name in corpus.fixture_names():
            mg = corpus.build(name).metric
            if mg is not None:
                assert_same_as_per_entry(mg, name, compare_json=True)
        for orders in ((3, 3), (2, 2, 2), (4, 4)):
            assert_same_as_per_entry(abelian_double(orders), orders, compare_json=True)

    def test_seeded_random_groups(self):
        rng = random.Random(31)
        seen = set()  # equal forms recur often; each is checked once
        for _ in range(200):
            mg = random_metric_group(rng, max_size=36)
            key = (mg.orders, tuple(sorted(mg.q.items())))
            if key not in seen:
                seen.add(key)
                assert_same_as_per_entry(mg, mg.orders)
        assert len(seen) >= 100

    def test_non_quadratic_form(self):
        # q(2) = 0 on Z3 breaks q(2x) = 4 q(x), yet the pairing it
        # defines is nondegenerate, so the data are still built
        mg = MetricGroup(orders=(3,), q={(0,): 0, (1,): Fraction(1, 3), (2,): Fraction(0)})
        assert "q_is_quadratic" in validate_metric(mg).failed_names()
        assert_same_as_per_entry(mg, "non-quadratic", compare_json=True)
        oracle = per_entry_metric_modular_data(mg)
        tampered = ModularData(
            s=tuple(tuple(-e for e in row) for row in oracle.s),
            t=oracle.t,
            unit_index=oracle.unit_index,
            ring=oracle.ring,
        )
        for md, expected in ((oracle, True), (tampered, False)):
            assert matches_modular_data(mg, md) is expected
            spec = CategorySpecFile(name="z3-non-quadratic", modular=md, metric=mg)
            report = spec.cross_section_checks()
            assert report.ok is expected
            assert report.failed_names() == ([] if expected else ["metric_regenerates_modular"])

    def test_huge_denominator_reaches_the_conductor_cap(self):
        # M = 10^30 takes the object-array route for K, and its one
        # distinct nonzero exponent is refused by the conductor cap
        mg = MetricGroup(orders=(2,), q={(0,): 0, (1,): Fraction(1, 10**30)})
        with pytest.raises(ConductorLimitError):
            metric_modular_data(mg)


class TestMilgram:
    def test_fixture_signatures(self):
        assert milgram_signature(corpus.semion().metric) == 1
        assert milgram_signature(toric_mg()) == 0
        assert milgram_signature(dsem_mg()) == 0

    def test_histogram_route_matches_per_element_sum(self):
        # one from_angle per distinct q-exponent against one per element
        groups = [corpus.build(n).metric for n in corpus.fixture_names()]
        groups = [mg for mg in groups if mg is not None]
        groups += [abelian_double(orders) for orders in ((3, 3), (2, 2, 2), (4, 4))]
        rng = random.Random(2718)
        groups += [random_metric_group(rng, max_size=64) for _ in range(200)]
        for mg in groups:
            assert milgram_signature(mg) == per_element_milgram_signature(mg), mg.orders

    def test_degenerate_gauss_sum_is_refused_by_both_routes(self):
        # q = 0 on Z2: g = 2, whose magnitude is not sqrt(2)
        mg = MetricGroup(orders=(2,), q={(0,): 0, (1,): 0})
        for route in (milgram_signature, per_element_milgram_signature):
            with pytest.raises(Degenerate):
                route(mg)

    def test_against_central_charge_on_random_groups(self):
        rng = random.Random(12345)
        for _ in range(25):
            mg = random_metric_group(rng, max_size=36)
            assert milgram_signature(mg) == central_charge(metric_modular_data(mg))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(0, 15),
        n=st.sampled_from([2, 3, 4, 5, 7, 8]),
    )
    def test_cyclic_signatures_match(self, a, n):
        # q(x) = a x^2 / (2n) on Z_n, for whatever values of a keep it
        # a nondegenerate quadratic form
        q = {(x,): Fraction(a * x * x, 2 * n) % 1 for x in range(n)}
        mg = MetricGroup(orders=(n,), q=q)
        if not validate_metric(mg).ok:
            return
        assert milgram_signature(mg) == central_charge(metric_modular_data(mg))


class TestLagrangians:
    def test_counts_on_fixtures(self):
        assert lagrangian_subgroups(corpus.semion().metric) == []
        assert len(lagrangian_subgroups(toric_mg())) == 2
        assert len(lagrangian_subgroups(dsem_mg())) == 1
        assert len(lagrangian_subgroups(corpus.d_z3().metric)) == 2

    def test_toric_subgroups_are_the_two_order_two_lines(self):
        subs = lagrangian_subgroups(toric_mg())
        assert subs == [((0, 0), (0, 1)), ((0, 0), (1, 0))]
        assert [subgroup_indicator(toric_mg(), s) for s in subs] == [
            (1, 1, 0, 0),
            (1, 0, 1, 0),
        ]

    def test_double_semion_subgroup_is_the_diagonal(self):
        assert lagrangian_subgroups(dsem_mg()) == [((0, 0), (1, 1))]

    def test_brute_force_oracle_agrees(self):
        rng = random.Random(777)
        checked = 0
        while checked < 12:
            mg = random_metric_group(rng, max_size=16)
            assert lagrangian_subgroups(mg) == brute_force_lagrangians(mg)
            checked += 1

    def test_abelian_double_always_has_the_two_obvious_subgroups(self):
        for orders in ((2,), (3,), (4,), (2, 2)):
            mg = abelian_double(orders)
            subs = lagrangian_subgroups(mg)
            s = len(orders)
            zero = tuple(0 for _ in orders)
            g_side = tuple(sorted(g + zero for g in product(*(range(n) for n in orders))))
            chi_side = tuple(sorted(zero + c for c in product(*(range(n) for n in orders))))
            assert g_side in subs and chi_side in subs
            assert subs

    def test_closure_growth_oracle_on_seeded_groups(self):
        rng = random.Random(4242)
        seen = set()  # equal forms recur often; each is checked once
        for _ in range(200):
            mg = random_metric_group(rng, max_size=64)
            key = (mg.orders, tuple(sorted(mg.q.items())))
            if key not in seen:
                seen.add(key)
                assert lagrangian_subgroups(mg) == closure_growth_lagrangians(mg), mg.orders
        assert len(seen) >= 100

    def test_closure_growth_oracle_on_doubles(self):
        for orders in ((3, 3), (2, 2, 2), (4, 4)):
            mg = abelian_double(orders)
            assert lagrangian_subgroups(mg) == closure_growth_lagrangians(mg), orders

    def test_closure_growth_oracle_on_non_quadratic_tables(self):
        rng = random.Random(1618)
        non_quadratic = nonempty = 0
        for _ in range(120):
            mg = sparse_q_table(rng, rng.choice(SQUARE_SHAPES))
            non_quadratic += "q_is_quadratic" in validate_metric(mg).failed_names()
            found = lagrangian_subgroups(mg)
            assert found == closure_growth_lagrangians(mg), mg.orders
            nonempty += bool(found)
        assert non_quadratic >= 100
        assert nonempty >= 20

    @pytest.mark.parametrize(
        "orders,count",
        [((2,) * 4, 270), ((3,) * 3, 80), ((5, 5), 12), ((6, 6), 6 * 8)],
    )
    def test_hyperbolic_counts(self, orders, count):
        # the hyperbolic form on (Z_p)^2n has prod_{i<n} (p^i + 1)
        # Lagrangian subgroups; on (Z_6)^4 = (Z_2)^4 + (Z_3)^4 the counts
        # of the two parts multiply
        assert len(lagrangian_subgroups(abelian_double(orders))) == count

    def test_size_cap(self):
        q = {a: Fraction(0) for a in product(*(range(2) for _ in range(13)))}
        mg = MetricGroup(orders=(2,) * 13, q=q)
        with pytest.raises(SizeLimit):
            lagrangian_subgroups(mg)

    def test_non_square_size_is_empty_fast(self):
        mg = MetricGroup(orders=(2,), q={(0,): Fraction(0), (1,): Fraction(1, 4)})
        assert lagrangian_subgroups(mg) == []
