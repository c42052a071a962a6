"""The twist exponents, the Gauss sums read off their histogram, and the
exact root-of-unity kernel `cyclotomic._root_phase` behind
`central_charge` and `milgram_signature`, against the routes they replaced (`tests.helpers`):
equal values, and equal exception types and messages."""

import math
import random
from fractions import Fraction

import numpy as np

from mtcbound import corpus, cyclotomic, modular
from mtcbound.cyclotomic import Cyclotomic, _root_phase, from_angle, rational, sqrt_int, zeta
from mtcbound.errors import MtcError
from mtcbound.fusion import _exact_dtype, _max_abs, _settle, _widen
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    _gauss_sum,
    _twist_exponents,
    box_tensor,
    central_charge,
    central_charge_float_oracle,
    double,
    gauss_sums,
    reverse,
    validate_modular,
)
from mtcbound.obstruction import verdict
from mtcbound.pointed import MetricGroup, abelian_double, metric_modular_data, milgram_signature

from tests.helpers import (
    central_charge_via_square,
    distinct_pair_central_charge,
    lookup_root_exponents,
    mpmath_root_of_unity,
    per_element_milgram_signature,
    per_label_central_charge,
    per_label_gauss_sums,
    per_slot_twist_roots,
    power_row_milgram_signature,
    random_metric_group,
    su2,
    t_table_central_charge,
    t_table_gauss_sum,
    two_branch_twist_exponents,
)
from tests.test_known_answers import seeded_metric_conjugates


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except MtcError as exc:
        return (type(exc), str(exc))


def fresh(md: ModularData, t=None) -> ModularData:
    """The same data with an empty cache (T replaced when given)."""
    return ModularData(s=md.s, t=md.t if t is None else t, unit_index=md.unit_index, ring=md.ring)


def unshared(md: ModularData) -> ModularData:
    """The same data with T factored afresh: no root exponents kept."""
    return fresh(md, FactoredMatrix.vector(tuple(md.t)))


def exponents_outcome(md: ModularData):
    got = outcome(_twist_exponents, md)
    if isinstance(got, tuple) and len(got) == 3:
        where, order, exponents = got
        return where, order, None if exponents is None else np.asarray(exponents).tolist()
    return got


def reference_exponents(md: ModularData):
    got = outcome(lambda m: per_slot_twist_roots(m.theta(), m.t.slots), md)
    if isinstance(got, tuple) and len(got) == 3:
        where, order, exponents = got
        return where, order, None if exponents is None else exponents.tolist()
    return got


def assert_matches_references(md: ModularData, label) -> None:
    """Exponents, tau+-, gauss_sums and the central charge against the
    replaced routes, each on a datum with an empty cache, with T's root
    exponents kept (as made) and matched afresh."""
    want_exponents = reference_exponents(md)
    want_taus = [outcome(t_table_gauss_sum, md, sign) for sign in (1, -1)]
    want_charge = outcome(t_table_central_charge, md)
    for data in (fresh(md), unshared(md)):
        assert exponents_outcome(data) == want_exponents, label
        assert [outcome(_gauss_sum, fresh(data), sign) for sign in (1, -1)] == want_taus, label
        assert outcome(central_charge, fresh(data)) == want_charge, label
    assert outcome(central_charge, fresh(md)) == outcome(distinct_pair_central_charge, md), label
    # the label-by-label routes raise in an older order: values only
    sums = outcome(per_label_gauss_sums, md)
    if isinstance(sums[0], Cyclotomic):
        assert gauss_sums(fresh(md)) == sums, label
    charge = outcome(per_label_central_charge, md)
    if isinstance(charge, Fraction):
        assert want_charge == charge == central_charge_via_square(md), label
        drift = (central_charge_float_oracle(md) - float(charge) + 4) % 8 - 4
        assert abs(drift) < 1e-6, label


def modular_inputs() -> list:
    """(label, datum): every fixture with modular data, the doubles of the
    six base fixtures, their reverses, and box-tensor products."""
    out = []
    for name in corpus.fixture_names():
        md = corpus.build(name).modular
        if md is not None:
            out += [(name, md), (f"reverse({name})", reverse(md))]
    base = {name: corpus.build(name).modular for name in corpus.BASE_MODULAR_FIXTURES}
    out += [(f"double({name})", double(md)) for name, md in base.items()]
    ising, fib = base["ising"], base["fibonacci"]
    for name in ("semion", "fibonacci", "toric_code"):
        out.append((f"ising x {name}", box_tensor(ising, base[name])))
        out.append((f"reverse(ising) x {name}", box_tensor(reverse(ising), base[name])))
    out.append(("fibonacci x reverse(semion)", box_tensor(fib, reverse(base["semion"]))))
    d_z3 = corpus.build("d_z3").modular
    out.append(("d_z3 x ising", box_tensor(d_z3, ising)))
    return out


def tampered_inputs() -> dict:
    toric, ising = corpus.build("toric_code").modular, corpus.build("ising").modular
    fib = corpus.build("fibonacci").modular
    wide = 2**70 + 1
    return {
        # 2 is no root of unity: tau+ exists, c does not
        "not a root of unity": ModularData(
            s=toric.s, t=tuple(map(rational, (1, 1, 2, 2))), ring=toric.ring
        ),
        "T_u = zeta_5": ModularData(s=ising.s, t=tuple(zeta(5) * v for v in ising.t)),
        "T_u = 2": ModularData(s=ising.s, t=tuple(2 * v for v in ising.t)),
        "T_u = 0": ModularData(s=ising.s, t=(rational(0),) + tuple(ising.t)[1:]),
        "a zero twist": ModularData(s=ising.s, t=tuple(ising.t)[:2] + (rational(0),)),
        "coefficients near 2^70": ModularData(
            s=ising.s,
            t=(rational(1), zeta(16) * wide, Cyclotomic(16, (wide, 0, -wide, 0, 0, 0, 0, 3))),
        ),
        # roots of unity whose Gauss sum over D is none: the kernel's
        # exact test fails and the error prints today's tau+/D
        "trivial twists": ModularData(s=toric.s, t=(toric.t[0],) * 4, ring=toric.ring),
        "fibonacci, theta = zeta_5": ModularData(s=fib.s, t=(rational(1), zeta(5))),
        "ising, theta = (1, 1, i)": ModularData(s=ising.s, t=(rational(1), rational(1), zeta(4))),
    }


def degenerate_forms() -> list:
    """Three degenerate forms, and q(0) != 0 over M = 2^63 on the trivial
    group: exponents in an object array, and no field holds zeta_M."""
    return [
        MetricGroup(orders=(2,), q={(0,): 0, (1,): 0}),
        MetricGroup(orders=(2, 2), q={a: 0 for a in ((0, 0), (0, 1), (1, 0), (1, 1))}),
        MetricGroup(orders=(4,), q={(a,): Fraction(a * a, 4) for a in range(4)}),
        MetricGroup(orders=(1,), q={(0,): Fraction(1, 2**63)}),
    ]


class TestAgainstTheReplacedRoutes:
    def test_fixtures_doubles_reverses_and_products(self):
        for label, md in modular_inputs():
            assert_matches_references(md, label)

    def test_seeded_metric_groups(self):
        rng = random.Random(2323)
        for _ in range(200):
            mg = random_metric_group(rng, max_size=36)
            md = metric_modular_data(mg)
            assert_matches_references(md, mg.orders)
            sigma = milgram_signature(mg)
            assert sigma == power_row_milgram_signature(mg), mg.orders
            assert sigma == per_element_milgram_signature(mg), mg.orders
            assert sigma == central_charge(md), mg.orders

    def test_metric_fixtures_and_hyperbolic_doubles(self):
        groups = [corpus.build(name).metric for name in corpus.fixture_names()]
        groups = [mg for mg in groups if mg is not None]
        doubles = [abelian_double(orders) for orders in ((2,), (3,), (2, 2), (3, 3), (4,))]
        for mg in groups + doubles:
            assert milgram_signature(mg) == power_row_milgram_signature(mg), mg.orders
            assert_matches_references(metric_modular_data(mg), mg.orders)
        assert {milgram_signature(mg) for mg in doubles} == {0}

    def test_tampered_twists(self):
        for label, md in tampered_inputs().items():
            assert_matches_references(md, label)
        cases = tampered_inputs()
        assert exponents_outcome(cases["not a root of unity"])[0] == (2,)
        assert exponents_outcome(cases["T_u = 2"])[:2] == (None, 16)
        message = outcome(central_charge, cases["trivial twists"])
        assert message == (modular.NotRootOfUnity, "tau+/D = 2 is not a root of unity")

    def test_exponents_past_int64(self):
        # T gathered from powers of zeta_M, M = 2^64, in an object array:
        # the twists (1, i) are read off T's entries, whose modulus
        # lcm(2, conductor) is at most 2 CONDUCTOR_CAP, so they have
        # order 4 and are int64 whatever form the exponents came in
        semion = corpus.build("semion").modular
        e = np.array([0, 2**62], dtype=object)
        md = fresh(semion, FactoredMatrix.gathered(lambda k: from_angle(Fraction(k, 2**64)), e))
        assert md.t.root_exponents()[0] == 4
        assert exponents_outcome(md) == (None, 4, [0, 1])
        assert _twist_exponents(md)[2].dtype == np.int64
        assert_matches_references(md, "semion over 2^64")
        want = validate_modular(fresh(semion)).to_json_dict()
        assert validate_modular(fresh(md)).to_json_dict() == want

    def test_degenerate_forms(self):
        # the kernel's exact test fails, and the Cyclotomic route raises
        *forms, wide = degenerate_forms()
        for mg in forms:
            got = outcome(milgram_signature, mg)
            assert got == outcome(power_row_milgram_signature, mg), mg.q
            assert got == outcome(per_element_milgram_signature, mg), mg.q
        assert outcome(milgram_signature, wide) == outcome(power_row_milgram_signature, wide)


def twice_odd_twists(md: ModularData) -> ModularData:
    """md with the odd labels' twists written at twice their conductor:
    one value in several T slots."""
    t = [x.embed(2 * x.conductor) if i % 2 else x for i, x in enumerate(md.t)]
    return ModularData(s=md.s, t=t, unit_index=md.unit_index, ring=md.ring)


def odd_conductor_roots(n: int) -> FactoredMatrix:
    """+-zeta_n^k for k < n, at conductor n (or less, where they are
    rational or of smaller order): for odd n, the powers of zeta_2n."""
    return FactoredMatrix.vector(tuple(sign * zeta(n, k) for sign in (1, -1) for k in range(n)))


NON_ROOTS = (
    rational(0),
    rational(Fraction(1, 2)),
    2 * zeta(8),
    (rational(3) + 4 * zeta(4)) / 5,
    zeta(8) * 2**60,
    Cyclotomic(4, (10**9000, 10**9000)),
)


class TestRootExponentsAgainstTheLookup:
    """`FactoredMatrix.root_exponents`, and `_twist_exponents` read off
    it, against the packed-row look-up they replaced."""

    @staticmethod
    def assert_roots_match(t: FactoredMatrix, label) -> None:
        """Read afresh, and as kept."""
        want_m, want = lookup_root_exponents(FactoredMatrix(t.entries, t.slots))
        m, roots = FactoredMatrix(t.entries, t.slots).root_exponents()
        assert (m, roots.tolist()) == (want_m, want.tolist()), label
        m, roots = t.root_exponents()
        angles = [-1 if r < 0 else Fraction(int(r), m) for r in roots.tolist()]
        assert angles == [-1 if r < 0 else Fraction(r, want_m) for r in want.tolist()], label

    @staticmethod
    def assert_twists_match(md: ModularData, label, monkeypatch) -> None:
        got = exponents_outcome(unshared(md))
        with monkeypatch.context() as patch:
            patch.setattr(FactoredMatrix, "root_exponents", lookup_root_exponents)
            assert exponents_outcome(unshared(md)) == got, label

    def test_fixtures_reverses_products_and_doubles(self, monkeypatch):
        # every shipped modular fixture, and products up to conductor 80
        ising, fib = corpus.build("ising").modular, corpus.build("fibonacci").modular
        data = modular_inputs() + [("double(ising x fibonacci)", double(box_tensor(ising, fib)))]
        assert max(md.conductor() for _, md in data) == 80
        for label, md in data:
            self.assert_roots_match(md.t, label)
            self.assert_twists_match(md, label, monkeypatch)

    def test_twists_at_twice_their_conductor(self, monkeypatch):
        toric, ising = corpus.build("toric_code").modular, corpus.build("ising").modular
        md = double(box_tensor(toric, ising))
        mixed = twice_odd_twists(md)
        assert md.rank == 144 and len(mixed.t.entries) > len(md.t.entries)
        self.assert_roots_match(mixed.t, "rank-144 mixed")
        self.assert_twists_match(mixed, "rank-144 mixed", monkeypatch)
        assert exponents_outcome(fresh(mixed)) == exponents_outcome(fresh(md))

    def test_odd_conductors(self):
        for n in (3, 5, 15):
            t = odd_conductor_roots(n)
            self.assert_roots_match(t, n)
            m, roots = t.root_exponents()
            assert m == 2 * n and sorted(roots.tolist()) == list(range(2 * n)), n

    def test_non_roots(self):
        t = FactoredMatrix.vector((rational(1), zeta(8)) + NON_ROOTS)
        self.assert_roots_match(t, "non-roots")
        assert t.root_exponents()[1].tolist() == [0, 1] + [-1] * len(NON_ROOTS)


class TestOneTwistReader:
    """`_twist_exponents` reads theta alone: T itself when T_u = 1, else
    T's entries over T_u.  The two-branch reader it replaced (T's root
    exponents less T_u's, or theta's when T_u is none) is the oracle:
    the same (where, order, exponents), or the same error."""

    @staticmethod
    def assert_same(md: ModularData, label) -> None:
        want = outcome(two_branch_twist_exponents, fresh(md))
        if isinstance(want, tuple) and len(want) == 3 and want[2] is not None:
            want = (*want[:2], want[2].tolist())
        assert exponents_outcome(fresh(md)) == want, label

    def test_fixtures_and_tampered_twists(self):
        data = [(name, corpus.build(name).modular) for name in corpus.fixture_names()]
        data = [(name, md) for name, md in data if md is not None]
        assert len(data) == 13
        # every fixture has T_u = 1; scaled, T_u is zeta_5 or 2
        for name, md in data:
            for scale in (rational(1), zeta(5), rational(2)):
                t = tuple(scale * x for x in md.t)
                self.assert_same(fresh(md, t), (name, scale))
        cases = tampered_inputs()
        assert {"T_u = 2", "T_u = zeta_5", "not a root of unity", "T_u = 0", "a zero twist"} < set(cases)
        for label, md in cases.items():
            self.assert_same(md, label)

    def test_doubles(self):
        toric, ising = corpus.build("toric_code").modular, corpus.build("ising").modular
        md = double(box_tensor(toric, ising))
        for label, data in (
            ("rank-144 double", md),
            ("rank-144 mixed", twice_odd_twists(md)),
            ("double(su2(4))", double(su2(4))),
            ("double(su2(10))", double(su2(10))),
        ):
            self.assert_same(data, label)

    def test_seeded_metric_data_and_their_conjugates(self):
        rng = random.Random(35)
        for _ in range(200):
            mg = random_metric_group(rng, max_size=36)
            self.assert_same(metric_modular_data(mg), mg.orders)
        for md, conj, negated in seeded_metric_conjugates():
            self.assert_same(conj, (md.conductor(), negated))


class TestKernel:
    def test_reads_rho_zeta_back(self):
        # x = rho zeta_L^j for rho = sqrt(k), over every j, and x = 0; x
        # and -x share the square that is tested, so for even L the
        # certified guess alone tells j from j + L/2
        for k in (1, 2, 3, 5, 8, 12):
            rho = sqrt_int(k)
            for order in (1, 2, 3, 4, 5, 8, 12):
                for j in range(order):
                    x = rho * from_angle(Fraction(j, order))
                    got = _root_phase(x.conductor, x.nums, x.den, Fraction(k))
                    assert Fraction(got[0], got[1]) == Fraction(j, order), (k, order, j)
        assert _root_phase(1, (0,), 1, Fraction(1)) is None

    def test_a_value_off_the_circle_is_not_shown(self):
        for x in (rational(2), zeta(8) + 1, (rational(3) + 4 * zeta(4)) / 5, zeta(5) * 2):
            assert _root_phase(x.conductor, x.nums, x.den, Fraction(1)) is None, x
            assert mpmath_root_of_unity(x) is None, x

    def test_wide_numerators_take_the_mpmath_rung(self):
        # 2^53 zeta_8 = rho zeta_16^2 for rho = 2^53: no float64 guess
        big = zeta(8) * 2**53
        assert _root_phase(big.conductor, big.nums, big.den, Fraction(2**106)) == (2, 16)

    def test_the_guess_falls_back_to_mpmath(self, monkeypatch):
        inputs = [(mg, metric_modular_data(mg)) for mg in self.groups()]
        # a non-square |A|: an irrational rho
        assert any(math.isqrt(mg.size) ** 2 != mg.size for mg, _ in inputs)
        expected = [
            (power_row_milgram_signature(mg), t_table_central_charge(md)) for mg, md in inputs
        ]
        # no float64 rung, in the kernel or in `real_sign`: mpmath decides
        monkeypatch.setattr(cyclotomic, "_float_real", lambda nums, cosines: None)
        assert [(milgram_signature(mg), central_charge(fresh(md))) for mg, md in inputs] == expected

    def test_pointed_answers_need_no_root_of_unity_test(self, monkeypatch):
        # milgram_signature and the hinted verdict read no twist, and the
        # unhinted central charge reads each distinct twist of a group
        # once: the data of one group share T and its root exponents
        def answers() -> list:
            out = []
            for mg in self.groups():
                md = metric_modular_data(mg)
                out.append((milgram_signature(mg), verdict(md, pointed_hint=mg).to_json_dict()))
            return out

        expected = answers()
        calls = []
        read = Cyclotomic.as_root_of_unity

        def counted(self):
            calls.append(self)
            return read(self)

        with monkeypatch.context() as patch:
            patch.setattr(Cyclotomic, "as_root_of_unity", counted)
            assert answers() == expected
            assert calls == []
            for mg in self.groups():
                first, second = metric_modular_data(mg), metric_modular_data(mg)
                assert central_charge(first) == milgram_signature(mg), mg.orders
                assert sorted(map(id, calls)) == sorted(map(id, first.t.entries)), mg.orders
                calls.clear()
                assert central_charge(second) == milgram_signature(mg), mg.orders
                assert calls == [], mg.orders

    def test_root_match_past_the_table_cap(self, monkeypatch):
        # the cap bounds only the ring route's product tables now: T's
        # entries go to the kernel whatever it is, so at 0 the answers
        # still equal those of the look-up route it replaced
        data = [md for _, md in modular_inputs()[:12]] + [
            metric_modular_data(mg) for mg in self.groups()
        ]

        def answers() -> list:
            return [
                (exponents_outcome(unshared(md)), gauss_sums(fresh(md)), central_charge(fresh(md)))
                for md in data
            ]

        with monkeypatch.context() as patch:
            patch.setattr(FactoredMatrix, "root_exponents", lookup_root_exponents)
            expected = answers()
        monkeypatch.setattr(modular, "_PRODUCT_TABLE_CAP", 0)
        assert answers() == expected

    @staticmethod
    def groups() -> list:
        rng = random.Random(31)
        return [random_metric_group(rng, max_size=36) for _ in range(20)]


class TestCaches:
    def test_value_ids_are_kept(self):
        md = corpus.build("double_ising").modular
        assert md.s.value_ids() is md.s.value_ids()
        assert md.t.value_ids() is md.t.value_ids()

    def test_data_of_one_group_share_the_root_exponents(self):
        mg = random_metric_group(random.Random(4), max_size=36)
        first, second = metric_modular_data(mg), metric_modular_data(mg)
        assert first.t.root_exponents() is second.t.root_exponents()
        assert _twist_exponents(first) is _twist_exponents(first)

    def test_max_abs(self):
        assert _max_abs(np.array([3, -7, 5], dtype=np.int64)) == 7
        assert _max_abs(np.array([[-2**70, 4], [2**69, -1]], dtype=object)) == 2**70
        assert _max_abs(np.zeros((0, 3), dtype=np.int64)) == 0
        assert _max_abs(np.zeros((2, 0), dtype=object)) == 0

    def test_settle_keeps_int64_below_2_to_the_63(self):
        fits = _settle(np.array([2**63 - 1, -(2**63 - 1)], dtype=object))
        assert fits.dtype == np.int64
        assert fits.tolist() == [2**63 - 1, -(2**63 - 1)]
        for past in (2**63, -(2**63)):
            kept = _settle(np.array([1, past], dtype=object))
            assert kept.dtype == object
            assert kept.tolist() == [1, past]
            assert type(kept[1]) is int

    def test_exact_dtype_is_float64_below_2_to_the_53(self):
        assert _exact_dtype(2**53 - 1) is np.float64
        assert _exact_dtype(2**53) is object

    def test_widen_at_2_to_the_63(self):
        a = np.array([3, -7], dtype=np.int64)
        assert _widen(a, 2**63 - 1) is a
        wide = _widen(a, 2**63)
        assert wide.dtype == object
        assert wide.tolist() == [3, -7]
        assert type(wide[0]) is int
