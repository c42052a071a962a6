import cmath
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import corpus, cyclotomic
from mtcbound.cyclotomic import (
    CONDUCTOR_CAP,
    TABLE_PHI_CAP,
    Cyclotomic,
    _embed_nums,
    _mul_nums,
    cyclotomic_polynomial,
    euler_phi,
    from_angle,
    rational,
    sqrt_int,
    zeta,
)
from mtcbound.errors import ConductorLimitError, DivisionByZero, InputError, MtcError
from mtcbound.modular import ModularData, central_charge, double, reverse
from mtcbound.pointed import metric_modular_data, milgram_signature
from tests.helpers import euclid_inverse, mpmath_root_of_unity, random_metric_group
from tests.test_ring_route import modular_fixtures, rank_12_products


def test_basic_identities():
    i = zeta(4)
    assert i * i == -1
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(8) * zeta(4) == zeta(8, 3)
    assert zeta(7) ** 7 == 1
    assert zeta(7) ** -3 == zeta(7, 4)
    assert (zeta(5) - zeta(5)) == 0
    assert from_angle(Fraction(3, 4)) == -i
    assert from_angle(Fraction(-1, 4)) == -i


def test_rational_demotion():
    assert zeta(8, 4) == -1
    assert zeta(8, 4).conductor == 1
    assert (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)).as_rational() == -1
    assert zeta(12, 6).conductor == 1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first coefficient outside {0, +-1}
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(105) == 48


def test_sqrt_int_against_float_oracle():
    for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 45, 64, 100]:
        r = sqrt_int(n)
        assert r * r == n
        val = r.approx()
        assert abs(val.imag) < 1e-12
        assert abs(val.real - math.sqrt(n)) < 1e-12
        assert r.real_sign() == 1


def test_real_sign():
    assert rational(0).real_sign() == 0
    assert (-sqrt_int(3)).real_sign() == -1
    assert (sqrt_int(2) - rational(Fraction(141, 100))).real_sign() == 1
    assert (sqrt_int(2) - rational(Fraction(142, 100))).real_sign() == -1


def test_floor_is_exact():
    phi = (1 + sqrt_int(5)) / 2
    assert rational(3).floor() == 3
    assert rational(Fraction(-3, 2)).floor() == -2
    assert sqrt_int(2).floor() == 1
    assert (-sqrt_int(2)).floor() == -2
    assert phi.floor() == 1 and (phi * phi).floor() == 2
    # 665857/470832 - sqrt 2 is about 1.6e-12
    tiny = rational(Fraction(665857, 470832)) - sqrt_int(2)
    assert (1 + tiny).floor() == 1
    assert (2 - tiny).floor() == 1
    assert (-tiny).floor() == -1
    # a Pell convergent below sqrt 2 with a gap under 1e-40: the float
    # value of 3 + gap is exactly 3, and the signs need more digits
    p, q = 1, 1
    while q < 10**21 or p * p - 2 * q * q != -1:
        p, q = p + 2 * q, p + q
    gap = sqrt_int(2) - rational(Fraction(p, q))
    assert (3 + gap).approx().real == 3.0
    assert (3 + gap).floor() == 3
    assert (3 - gap).floor() == 2


def test_approx_matches_cmath():
    for n in (1, 2, 3, 8, 13, 20):
        for k in range(n):
            got = zeta(n, k).approx()
            want = cmath.exp(2j * math.pi * k / n)
            assert abs(got - want) < 1e-12


def test_root_of_unity_detection():
    for m in range(1, 31):
        for k in range(m):
            got = zeta(m, k).as_root_of_unity()
            g = math.gcd(k, m) if k else m
            assert got == (k // g, m // g) if k else (0, 1)
    assert (zeta(8) + 1).as_root_of_unity() is None
    assert rational(2).as_root_of_unity() is None
    assert rational(0).as_root_of_unity() is None


def test_unit_norm_but_not_root():
    # (3+4i)/5 satisfies u * conj(u) = 1 yet is not a root of unity
    u = (rational(3) + 4 * zeta(4)) / 5
    assert u * u.conj() == 1
    assert u.as_root_of_unity() is None


def test_division_errors():
    with pytest.raises(DivisionByZero):
        rational(1) / rational(0)
    with pytest.raises(DivisionByZero):
        rational(0).inverse()
    assert isinstance(DivisionByZero("x"), ZeroDivisionError)


def test_conductor_cap():
    with pytest.raises(ConductorLimitError):
        zeta(CONDUCTOR_CAP + 1)
    # lcm blowup past the cap must fail loudly, not thrash
    with pytest.raises(ConductorLimitError):
        zeta(999983) * zeta(999979)


def test_table_cap_refuses_the_first_conductor_past_it():
    n = next(n for n in range(1, 2 * TABLE_PHI_CAP + 8) if euler_phi(n) > TABLE_PHI_CAP)
    assert (n, euler_phi(n)) == (2053, 2052)
    with pytest.raises(ConductorLimitError, match="table cap"):
        zeta(n)
    # zeta_n made without a table: its product reads the reduction rows
    x = Cyclotomic(n, (0, 1) + (0,) * (euler_phi(n) - 2))
    with pytest.raises(ConductorLimitError, match="table cap"):
        x * x
    assert n not in cyclotomic._POWER_ROWS


def test_rational_factor_fast_path_equals_full_product():
    # a rational operand scales the coefficients; the result must be the
    # full power-basis product with that operand embedded at conductor N
    by_conductor = {}
    for name in corpus.fixture_names():
        md = corpus.build(name).modular
        if md is None:
            continue
        for x in [e for row in md.s for e in row] + list(md.t):
            by_conductor.setdefault(x.conductor, []).append(x)
    assert len(by_conductor) > 3
    factors = (0, 1, -1, 3, Fraction(-5, 12), rational(Fraction(7, 2)))
    for n, values in sorted(by_conductor.items()):
        for x in values[:8] + [zeta(n, 1)]:
            for q in factors:
                fr = Fraction(q.as_rational() if isinstance(q, Cyclotomic) else q)
                full = Cyclotomic(
                    n,
                    _mul_nums(n, x.nums, _embed_nums((fr.numerator,), 1, n)),
                    x.den * fr.denominator,
                )
                for got in (x * q, q * x):
                    assert (got.conductor, got.nums, got.den) == (
                        full.conductor,
                        full.nums,
                        full.den,
                    ), (n, x, q)


def test_json_round_trip_exact():
    x = zeta(8) / 3 + rational(Fraction(-7, 2))
    blob = json.dumps(x.to_json_dict())
    assert Cyclotomic.from_json_dict(json.loads(blob)) == x
    # big integers survive as strings
    y = rational(Fraction(10**40 + 1, 3))
    assert Cyclotomic.from_json_dict(json.loads(json.dumps(y.to_json_dict()))) == y


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        Cyclotomic.from_json_dict({"N": 8})
    with pytest.raises(InputError):
        Cyclotomic.from_json_dict({"N": 8, "c": [["1", "1"]]})  # wrong length
    with pytest.raises(InputError):
        Cyclotomic.from_json_dict({"N": 0, "c": []})
    with pytest.raises(InputError):
        Cyclotomic.from_json_dict({"N": 4, "c": [["1", "0"], ["0", "1"]]})


def digit_limit_message() -> str:
    return (
        f"integer of more than {sys.get_int_max_str_digits()} digits: past Python's "
        "int-string conversion limit (sys.set_int_max_str_digits)"
    )


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-string digit limit")
def test_json_refuses_integers_past_the_digit_limit_by_name():
    limit = sys.get_int_max_str_digits()
    huge = "1" + "0" * limit  # one digit past the limit
    with pytest.raises(InputError) as refused:
        Cyclotomic.from_json_dict({"N": 4, "c": [[huge, "1"], ["1", "1"]]})
    assert str(refused.value) == digit_limit_message()
    # a malformed entry is still named as one
    with pytest.raises(InputError, match=r"^bad coefficient entry \['1', 'x'\]$"):
        Cyclotomic.from_json_dict({"N": 4, "c": [["1", "x"], ["1", "1"]]})
    with pytest.raises(InputError) as refused:
        Cyclotomic(4, (10**limit, 1)).to_json_dict()
    assert str(refused.value) == digit_limit_message()
    assert sys.get_int_max_str_digits() == limit


_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 16])


@st.composite
def cyclotomics(draw):
    n = draw(_conductors)
    phi = euler_phi(n)
    nums = tuple(draw(st.integers(-9, 9)) for _ in range(phi))
    den = draw(st.integers(1, 9))
    return Cyclotomic(n, nums, den)


class TestFieldProperties:
    @given(cyclotomics(), cyclotomics(), cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_inverse(self, a):
        if a.is_zero():
            return
        assert a * a.inverse() == 1

    @given(cyclotomics(), cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_conjugation_is_a_ring_map(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_norm_is_real_nonnegative(self, a):
        norm = a * a.conj()
        assert norm.conj() == norm
        assert norm.real_sign() >= 0

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, a):
        assert Cyclotomic.from_json_dict(json.loads(json.dumps(a.to_json_dict()))) == a

    @given(cyclotomics())
    @settings(max_examples=40, deadline=None)
    def test_approx_is_multiplicative(self, a):
        va = a.approx()
        v2 = (a * a).approx()
        assert abs(va * va - v2) < 1e-9 * (1 + abs(va) ** 2)


def _parts(x) -> tuple:
    return (x.conductor, x.nums, x.den)


def _su2_s00(m: int) -> Cyclotomic:
    """S_00 = sqrt(2/m) sin(pi/m) of SU(2)_(m-2), real with |x|^2 irrational."""
    sine = (zeta(2 * m) - zeta(2 * m, -1)) / (2 * zeta(4))
    return sqrt_int(2 * m) / m * sine


class TestInverseOracle:
    """`inverse` against the extended Euclid with Phi_N it replaced, on
    both of its routes: conj(x)/|x|^2 when |x|^2 is rational, and the
    field norm of |x|^2 over the real subfield otherwise."""

    def test_fixture_s_and_t_entries(self):
        seen = set()
        for name in corpus.fixture_names():
            md = corpus.build(name).effective_modular()
            if md is None:
                continue
            for x in (*(e for row in md.s for e in row), *md.t):
                if x.is_zero() or _parts(x) in seen:
                    continue
                seen.add(_parts(x))
                assert _parts(x.inverse()) == _parts(euclid_inverse(x)), (name, x)
        assert len(seen) >= 25

    def test_square_roots(self):
        # the inverse over x's own conductor is unique, so y x = 1 at that
        # conductor pins y to the Euclid result; the Euclid route itself
        # runs where it is quick (it takes ~20 s on sqrt(197)).  The last
        # value is stored above its minimal conductor.
        for x in [*(sqrt_int(n) for n in range(1, 201)), sqrt_int(2).embed(16)]:
            y = x.inverse()
            assert (x * x.conj()).conductor == 1
            assert x * y == 1 and y.conductor == x.conductor, x
            if x.conductor <= 64:
                assert _parts(y) == _parts(euclid_inverse(x)), x

    def test_golden_ratio_values_take_the_euclid_route(self):
        # real and non-real values with |x|^2 irrational, up to phi(N) =
        # 144; S_00's |x|^2 lies in a proper subfield of the real one, so
        # its conjugates repeat
        golden = (1 + sqrt_int(5)) / 2
        values = [golden, golden - 1, golden * golden, golden + zeta(5), 3 * golden - zeta(10)]
        values += [golden.embed(40), golden + zeta(8), *(_su2_s00(m) for m in (5, 7, 35, 63))]
        for m, x in zip((5, 7, 35, 63), values[-4:]):
            assert x.conductor == 8 * m
            assert abs(x.approx() - math.sqrt(2 / m) * math.sin(math.pi / m)) < 1e-12
        for x in values:
            assert (x * x.conj()).conductor != 1, x
            assert _parts(x.inverse()) == _parts(euclid_inverse(x)), x
            assert x * x.inverse() == 1 and x.inverse().conductor == x.conductor, x

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_random_values(self, a):
        if not a.is_zero():
            assert _parts(a.inverse()) == _parts(euclid_inverse(a))


def _root_cases() -> list:
    """Roots of unity at every order up to 60, products across conductors
    and unit-modulus values that are no root of unity."""
    cases = [zeta(m, k) for m in range(1, 61) for k in range(m)]
    cases += [zeta(12, 5) * zeta(20, 3), -zeta(9, 2), zeta(8) * zeta(8)]
    cases += [(rational(3) + 4 * zeta(4)) / 5, (zeta(7) + 2) / (zeta(7, 6) + 2)]
    return cases + [zeta(8) + 1, rational(2), rational(0), sqrt_int(3) * zeta(3)]


def _rung_answers(family: str) -> list:
    """`as_root_of_unity` on every value of one family, or on each
    distinct T entry of its data with `central_charge` (and
    `milgram_signature` of metric groups), each outcome a value or the
    type and message of the error."""

    def outcome(f, *args):
        try:
            return f(*args)
        except MtcError as exc:
            return type(exc), str(exc)

    if family == "root cases":
        return [outcome(Cyclotomic.as_root_of_unity, x) for x in _root_cases()]
    if family == "fixtures, reverses and doubles":
        data = [md for _, md in modular_fixtures()]
        data += [reverse(md) for md in data]
        data += [double(corpus.build(name).modular) for name in corpus.BASE_MODULAR_FIXTURES]
        groups = []
    else:
        rng = random.Random(2424)
        groups = [random_metric_group(rng, max_size=36) for _ in range(200)]
        data = [metric_modular_data(mg) for mg in groups]
    answers = [outcome(milgram_signature, mg) for mg in groups]
    for md in data:
        fresh = ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=md.ring)
        answers += [outcome(Cyclotomic.as_root_of_unity, x) for x in md.t.entries]
        answers.append(outcome(central_charge, fresh))
    return answers


class TestRootOfUnityReadOff:
    """`as_root_of_unity` is `_root_phase` with rho^2 = 1: a guess of the
    exponent, certified in float64 or by the mpmath ladder, and one exact
    test."""

    def test_matches_the_mpmath_guided_route(self):
        for x in _root_cases():
            assert x.as_root_of_unity() == mpmath_root_of_unity(x), x

    @pytest.mark.parametrize(
        "family", ["root cases", "fixtures, reverses and doubles", "metric groups"]
    )
    def test_the_mpmath_rung_gives_the_float64_answers(self, monkeypatch, family):
        want = _rung_answers(family)
        calls = []
        evaluate = Cyclotomic._eval_mp
        monkeypatch.setattr(Cyclotomic, "_eval_mp", lambda x: calls.append(x) or evaluate(x))
        monkeypatch.setattr(cyclotomic, "_float_real", lambda nums, cosines: None)
        assert _rung_answers(family) == want
        assert calls  # the float64 rung is off: mpmath guessed

    def test_coefficients_beyond_float64_take_the_mpmath_rung(self, monkeypatch):
        # (a + b i)/c with a^2 + b^2 = c^2 near 10^800: unit modulus, no
        # root of unity, coefficients no float64 holds
        p, q = 10**400 + 7, 10**399 + 3
        x = (rational(p * p - q * q) + 2 * p * q * zeta(4)) / (p * p + q * q)
        assert x * x.conj() == 1
        big = Cyclotomic(4, (10**400, 10**400))  # not of unit modulus
        assert x._float_real() is None and big._float_real() is None
        scanned, calls = [], []
        real_zeta, evaluate = cyclotomic.zeta, Cyclotomic._eval_mp
        monkeypatch.setattr(cyclotomic, "zeta", lambda n, k=1: scanned.append(n) or real_zeta(n, k))
        monkeypatch.setattr(Cyclotomic, "_eval_mp", lambda v: calls.append(v) or evaluate(v))
        assert x.as_root_of_unity() is None
        assert len(calls) == 1  # certified at 30 digits
        # a bound of about 10^(403 - digits) certifies from 480 digits
        assert big.as_root_of_unity() is None and len(calls) == 4
        assert scanned == []  # no scan: the exact test alone decides


def _golden_truncation_gap(digits: int) -> Cyclotomic:
    """The golden ratio minus its decimal truncation to `digits`
    significant digits: positive, below 10^(1 - digits)."""
    scale = 10 ** (digits - 1)
    # floor(scale (1 + sqrt 5) / 2), exactly
    truncated = (scale + math.isqrt(5 * scale * scale)) // 2
    return (1 + sqrt_int(5)) / 2 - rational(Fraction(truncated, scale))


class TestFloatSignRung:
    """`real_sign` and `floor` with the float64 first rung against the
    mpmath ladder alone (the rung monkeypatched off): the two never
    disagree, and what the rung cannot certify climbs the ladder."""

    @staticmethod
    def ladder(monkeypatch, method, values) -> list:
        with monkeypatch.context() as patch:
            patch.setattr(Cyclotomic, "_float_real", lambda self: None)
            return [method(x) for x in values]

    @staticmethod
    def mpmath_calls(monkeypatch) -> list:
        calls = []
        evaluate = Cyclotomic._eval_mp
        monkeypatch.setattr(Cyclotomic, "_eval_mp", lambda x: calls.append(x) or evaluate(x))
        return calls

    def test_dims_and_total_dims(self, monkeypatch):
        values = []
        for _, md in modular_fixtures() + rank_12_products():
            values += [*md.dims(), md.total_dim()]
        values = [x for x in values if x.conductor > 1]
        assert len(values) == 28
        assert self.ladder(monkeypatch, Cyclotomic.real_sign, values) == [1] * len(values)
        calls = self.mpmath_calls(monkeypatch)
        assert [x.real_sign() for x in values] == [1] * len(values)
        assert calls == []  # the float64 rung certified every one

    def test_seeded_real_values(self, monkeypatch):
        rng = random.Random(5080)
        values = []
        for _ in range(1000):
            n = rng.randint(5, 80)
            height = rng.choice((3, 10**3, 10**12))
            nums = tuple(rng.randint(-height, height) for _ in range(euler_phi(n)))
            x = Cyclotomic(n, nums, rng.randint(1, 9))
            values.append(x + x.conj())
        signs = [x.real_sign() for x in values]
        assert signs == self.ladder(monkeypatch, Cyclotomic.real_sign, values)
        assert {-1, 1} <= set(signs)

    @pytest.mark.parametrize("digits", [16, 19])
    def test_near_misses_escalate(self, monkeypatch, digits):
        gap = _golden_truncation_gap(digits)
        assert 0 < gap.approx(60).real < 10.0 ** (1 - digits)
        rung = gap._float_real()
        if digits == 16:
            assert abs(rung[0]) <= rung[1]  # too close for float64
        else:
            assert rung is None  # 10^18-sized coefficients
        calls = self.mpmath_calls(monkeypatch)
        assert gap.real_sign() == 1 and (-gap).real_sign() == -1
        assert len(calls) == 2
        assert self.ladder(monkeypatch, Cyclotomic.real_sign, [gap, -gap]) == [1, -1]

    def test_coefficients_from_2_to_the_53_skip_the_rung(self, monkeypatch):
        for big in (2**53, -(2**53), 3**40):
            x = Cyclotomic(5, (big, 1, 0, 1), 7)
            assert x._float_real() is None
            calls = self.mpmath_calls(monkeypatch)
            assert x.real_sign() == (1 if big > 0 else -1) and len(calls) == 1
            assert self.ladder(monkeypatch, Cyclotomic.real_sign, [x]) == [x.real_sign()]
        assert Cyclotomic(5, (2**53 - 1, 1, 0, 1))._float_real() is not None

    def test_floor_near_integers(self, monkeypatch):
        # phi^n = L_n - (-1/phi)^n for the Lucas numbers L_n, within
        # 10^-12 of L_n from n = 58 on; and integers plus or minus gaps
        # of sqrt 2 against its Pell convergents, down to ~10^-13
        golden = (1 + sqrt_int(5)) / 2
        lucas = [2, 1]
        while len(lucas) < 66:
            lucas.append(lucas[-1] + lucas[-2])
        cases = [(golden**n, lucas[n] - (n % 2 == 0)) for n in range(58, 66)]
        p, q = 1, 1
        while q < 2 * 10**6:
            p, q = p + 2 * q, p + q
            gap = sqrt_int(2) - rational(Fraction(p, q))
            if abs(gap.approx().real) < 1e-12:
                below = gap.real_sign() < 0
                cases += [(k + gap, k - below) for k in (-3, 0, 7)]
                cases += [(k - gap, k - (not below)) for k in (-3, 0, 7)]
        assert len(cases) >= 14
        values = [x for x, _ in cases]
        assert [x.floor() for x in values] == [k for _, k in cases]
        assert self.ladder(monkeypatch, Cyclotomic.floor, values) == [k for _, k in cases]
