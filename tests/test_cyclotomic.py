import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import corpus
from mtcbound.cyclotomic import (
    CONDUCTOR_CAP,
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
from mtcbound.errors import ConductorLimitError, DivisionByZero, InputError
from tests.helpers import euclid_inverse


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


class TestInverseOracle:
    """`inverse` (conj(x)/|x|^2 when |x|^2 is rational) against the
    extended Euclid it replaced on those values."""

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
        # runs where it is quick (it takes ~20 s on sqrt(197))
        for n in range(1, 201):
            x = sqrt_int(n)
            y = x.inverse()
            assert (x * x.conj()).is_rational()
            assert x * y == 1 and y.conductor == x.conductor, n
            if x.conductor <= 64:
                assert _parts(y) == _parts(euclid_inverse(x)), n

    def test_golden_ratio_values_take_the_euclid_route(self):
        golden = (1 + sqrt_int(5)) / 2
        values = [golden, golden - 1, golden * golden, golden + zeta(5), 3 * golden - zeta(10)]
        for x in values:
            assert not (x * x.conj()).is_rational(), x
            assert _parts(x.inverse()) == _parts(euclid_inverse(x)), x
            assert x * x.inverse() == 1

    @given(cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_random_values(self, a):
        if not a.is_zero():
            assert _parts(a.inverse()) == _parts(euclid_inverse(a))
