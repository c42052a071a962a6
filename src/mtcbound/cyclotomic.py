"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is stored as an integer coefficient vector over the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N) = Q[x]/Phi_N(x), together with a
positive common denominator.  All field operations are exact; floating
point only ever enters through :meth:`Cyclotomic.approx` and two
certified readings, which share one float64 rung (one cached table of
cos and sin per conductor) and one mpmath ladder behind it: the sign of
a real value (`real_sign`, `floor`), and `_root_phase`, the one exact
decision of x = rho zeta_L^j for a rational rho^2.  `_root_phase` takes
its guess of j only where an error bound makes it exact for every such
value, and one exact test of x^2 then decides; `as_root_of_unity`
(rho = 1), `modular.FactoredMatrix.root_exponents` (through
`as_root_of_unity`), `modular.central_charge` and
`pointed.milgram_signature` all read roots of unity through it.

One substitution, zeta -> zeta^k (`_embed_nums`), is the layer's only
power map: it embeds a value into a larger conductor, conjugates it, and
applies the Galois automorphisms from which `Cyclotomic.inverse` forms
the field norm, so no division of polynomials is needed.

Mixing conductors is handled by embedding both operands into the lcm
conductor.  The lcm is capped (`CONDUCTOR_CAP`), and dense reduction
tables are refused beyond `TABLE_PHI_CAP` basis elements, so a runaway
computation fails loudly instead of thrashing.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import (
    ConductorLimitError,
    DivisionByZero,
    InputError,
    NumericError,
)

CONDUCTOR_CAP = 10**6
TABLE_PHI_CAP = 2048
# integers of absolute value below 2^53 are exact in float64
_FLOAT_EXACT = 2**53


def _digit_limit_error() -> InputError:
    """The refusal of an integer past Python's limit on int-string
    conversion (`sys.get_int_max_str_digits`), which the library reads
    but never lifts."""
    return InputError(
        f"integer of more than {sys.get_int_max_str_digits()} digits: past Python's "
        "int-string conversion limit (sys.set_int_max_str_digits)"
    )


def _conductor_text(n) -> str:
    """repr(n), but an integer of more than 40 digits by its digit count,
    found without `str`: such a conductor, read off a long denominator,
    would fill an error line, and past the int-string digit limit `str`
    refuses it."""
    if type(n) is not int or abs(n) < 10**40:
        return repr(n)
    m = abs(n)
    digits = int((m.bit_length() - 1) * math.log10(2) - 1e-6)  # at most floor(log10 m)
    while 10 ** (digits + 1) <= m:
        digits += 1
    return f"of {digits + 1} digits"


def _coefficient_entry(x, pair) -> int:
    """int(x) for x, an int or a str, of a coefficient pair."""
    try:
        return int(x)
    except ValueError as exc:
        # int names the strings it cannot parse; any other ValueError is
        # its refusal past the digit limit
        if not str(exc).startswith("invalid literal"):
            raise _digit_limit_error() from exc
        raise InputError(f"bad coefficient entry {pair!r}") from exc


# ---------------------------------------------------------------------------
# integer polynomial helpers (index = power, trailing entry nonzero)
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise InputError(f"phi undefined for {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials, divisor monic."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            out[k - dn] = c
            for i, d in enumerate(den):
                num[k - dn + i] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending powers, monic."""
    if n == 1:
        return (-1, 1)
    poly: list[int] = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


_POWER_ROWS: dict[int, list[tuple[int, ...]]] = {}


def _power_row(n: int, e: int) -> tuple[int, ...]:
    """Coefficient vector of x^e mod Phi_n, e >= 0.

    The rows of one n are cached in order of e: the unit vectors below
    phi, then x^phi - Phi_n for x^phi, then each row the one before
    shifted up one power, with its overflowing x^phi coefficient times
    the row of x^phi added back.  The first call builds the rows up to
    x^(2 phi - 2), the ones `_reduction` reads, and refuses phi above
    `TABLE_PHI_CAP`."""
    cache = _POWER_ROWS.get(n)
    top = e
    if cache is None:
        phi = euler_phi(n)
        if phi > TABLE_PHI_CAP:
            raise ConductorLimitError(
                f"conductor {_conductor_text(n)} needs {phi} basis elements, "
                f"table cap is {TABLE_PHI_CAP}"
            )
        cache = [tuple(1 if i == j else 0 for i in range(phi)) for j in range(phi)]
        cache.append(tuple(-c for c in cyclotomic_polynomial(n)[:phi]))
        _POWER_ROWS[n] = cache
        top = max(e, 2 * phi - 2)
    phi = len(cache[0])
    base = cache[phi]
    while len(cache) <= top:
        prev = cache[-1]
        over = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if over:
            row = [r + over * b for r, b in zip(row, base)]
        cache.append(tuple(row))
    return cache[e]


def _reduction(n: int) -> tuple[int, list[tuple[int, ...]]]:
    """(phi, rows) with rows[k] = x^k mod Phi_n for every k <= 2 phi - 2:
    `_power_row`'s cache."""
    rows = _POWER_ROWS.get(n)
    if rows is None:
        _power_row(n, 0)
        rows = _POWER_ROWS[n]
    return len(rows[0]), rows


def _mul_nums(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if n == 1:
        return (a[0] * b[0],)
    phi, rows = _reduction(n)
    c = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c[i + j] += ai * bj
    for k in range(2 * phi - 2, phi - 1, -1):
        ck = c[k]
        if ck:
            row = rows[k]
            for t, rt in enumerate(row):
                if rt:
                    c[t] += ck * rt
    return tuple(c[:phi])


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _embed_nums(nums: tuple[int, ...], n_from: int, n_to: int, power: int = 1) -> tuple[int, ...]:
    """The substitution zeta_n_from^i -> zeta_n_to^(i power n_to/n_from) on
    a coefficient vector: power 1 rewrites a value of Q(zeta_n_from) in
    Q(zeta_n_to), and with n_to = n_from, power a is the Galois
    automorphism sigma_a (a = -1 is complex conjugation)."""
    if n_to == n_from and power == 1:
        return nums
    phi = euler_phi(n_to)
    step = n_to // n_from * power
    acc = [0] * phi
    for i, v in enumerate(nums):
        if v:
            row = _power_row(n_to, (i * step) % n_to)
            for t, rt in enumerate(row):
                if rt:
                    acc[t] += v * rt
    return tuple(acc)


# ---------------------------------------------------------------------------
# the scalar type
# ---------------------------------------------------------------------------


class Cyclotomic:
    """An element of Q(zeta_N), exact.

    Construct via :func:`zeta`, :func:`rational`, or the class methods;
    the raw constructor normalizes (shared gcd removed, positive
    denominator) and demotes elements of Q to conductor 1.
    """

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor: int, nums: tuple[int, ...], den: int = 1):
        if den == 0:
            raise DivisionByZero("zero denominator")
        if den < 0:
            den = -den
            nums = tuple(-v for v in nums)
        g = den
        for v in nums:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            den //= g
            nums = tuple(v // g for v in nums)
        if conductor > 1 and not any(nums[1:]):
            conductor = 1
            nums = (nums[0],)
        if not any(nums):
            conductor, nums, den = 1, (0,), 1
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclotomic":
        fr = Fraction(q)
        return Cyclotomic(1, (fr.numerator,), fr.denominator)

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.nums == (0,) and self.conductor == 1

    def as_rational(self) -> Fraction | None:
        if self.conductor == 1:
            return Fraction(self.nums[0], self.den)
        return None

    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.nums)

    # -- conductor plumbing -------------------------------------------------

    def embed(self, conductor: int) -> "Cyclotomic":
        """Value rewritten over Q(zeta_conductor); requires self.conductor | conductor.

        Note the result is still normalized, so a value that is secretly
        rational comes back at conductor 1 regardless of the argument.
        """
        n = self.conductor
        if conductor == n:
            return self
        if conductor > CONDUCTOR_CAP:
            raise ConductorLimitError(
                f"conductor {_conductor_text(conductor)} exceeds cap {CONDUCTOR_CAP}"
            )
        if conductor % n != 0:
            raise InputError(f"cannot embed conductor {n} into {conductor}")
        return Cyclotomic(conductor, _embed_nums(self.nums, n, conductor), self.den)

    def _unify_raw(
        self, other: "Cyclotomic"
    ) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        if self.conductor == other.conductor:
            return self.conductor, self.nums, other.nums
        n = _lcm(self.conductor, other.conductor)
        if n > CONDUCTOR_CAP:
            raise ConductorLimitError(
                f"lcm conductor {_conductor_text(n)} exceeds cap {CONDUCTOR_CAP}"
            )
        return n, _embed_nums(self.nums, self.conductor, n), _embed_nums(
            other.nums, other.conductor, n
        )

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyclotomic | None":
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, an, bn = self._unify_raw(o)
        d = _lcm(self.den, o.den)
        fa, fb = d // self.den, d // o.den
        return Cyclotomic(n, tuple(x * fa + y * fb for x, y in zip(an, bn)), d)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-v for v in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.conductor == 1:
            q = o.nums[0]
            if self.conductor == 1:
                return Cyclotomic(1, (self.nums[0] * q,), self.den * o.den)
            return Cyclotomic(self.conductor, tuple(v * q for v in self.nums), self.den * o.den)
        if self.conductor == 1:
            q = self.nums[0]
            return Cyclotomic(o.conductor, tuple(v * q for v in o.nums), self.den * o.den)
        n, an, bn = self._unify_raw(o)
        return Cyclotomic(n, _mul_nums(n, an, bn), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/x from the Galois action sigma_k: zeta -> zeta^k of Q(zeta_N).

        For x = a/d, c = conj(a) makes b = a c real.  When b is rational
        (roots of unity, the entries of a pointed S, sqrt(n)), 1/x = c d/b.
        Otherwise b lies in the real subfield, whose Galois group is
        (Z/N)^x/{+-1}, so the conjugates of b are the sigma_k(b) for k
        prime to N with 0 < k < N/2, each repeated equally often when b
        lies in a smaller field.  The product of the distinct ones is the
        norm of b over Q, a nonzero rational p, so c times the distinct
        sigma_k(b) other than b gives 1/x = c d/p.  Every product stays
        at conductor N.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        n = self.conductor
        if n == 1:
            return Cyclotomic(1, (self.den,), self.nums[0])
        c = _embed_nums(self.nums, n, n, -1)
        b = _mul_nums(n, self.nums, c)
        if any(b[1:]):
            seen = {b}
            for k in range(2, (n + 1) // 2):
                if math.gcd(k, n) == 1:
                    conjugate = _embed_nums(b, n, n, k)
                    if conjugate not in seen:
                        seen.add(conjugate)
                        c = _mul_nums(n, c, conjugate)
            b = _mul_nums(n, self.nums, c)
        return Cyclotomic(n, tuple(v * self.den for v in c), b[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(-1)."""
        n = self.conductor
        if n == 1:
            return self
        return Cyclotomic(n, _embed_nums(self.nums, n, n, -1), self.den)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.conductor == o.conductor:
            return self.den == o.den and self.nums == o.nums
        _, an, bn = self._unify_raw(o)
        fa, fb = o.den, self.den
        return all(x * fa == y * fb for x, y in zip(an, bn))

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None  # mutable-free but intentionally unhashable

    def __bool__(self):
        return not self.is_zero()

    # -- numeric views ------------------------------------------------------

    def _eval_mp(self):
        """mpmath value at the caller's working precision."""
        n = self.conductor
        total = mpmath.mpc(0)
        for i, v in enumerate(self.nums):
            if v:
                total += v * mpmath.expjpi(mpmath.mpf(2 * i) / n)
        return total / self.den

    def approx(self, dps: int = 30) -> complex:
        """Floating-point value under the standard embedding zeta_N = e^(2 pi i/N)."""
        with mpmath.workdps(dps):
            return complex(self._eval_mp())

    def _height(self) -> Fraction:
        return Fraction(sum(abs(v) for v in self.nums), self.den)

    def _float_real(self) -> tuple[float, float] | None:
        """`_float_real` of the coefficients: v = sum_k c_k cos(2 pi k/N)
        and a bound on |v - den Re(x)| (see `real_sign`), or None."""
        return _float_real(self.nums, _unit_parts(self.conductor)[0])

    def real_sign(self) -> int:
        """Sign of a real cyclotomic number, certified.

        The first rung is float64 (`_float_real`): v = sum_k c_k
        cos(2 pi k/N), with |c_k| < 2^53 exact, decides the sign when
        |v| > sum |c_k| (phi + 32) 2^-50.  That bound assumes libm's cos
        and sin are faithfully rounded (off by under one ulp).  The
        float64 argument 2 pi k/N is off by less than 2^-49, so each
        cosine (or sine) of the `_unit_parts` table is off by less than
        2^-48; each product rounds once and `math.fsum` once, so
        |v - den Re(x)| < sum |c_k| (2^-48 + 2^-52)(1 + 2^-52), and the
        bound is over seven times that.  Otherwise, and when a
        coefficient is too large for float64, `_mp_ladder` decides.
        Raises NumericError if the value cannot be certified nonzero at
        its ceiling (never happens for exact zero, which returns 0).
        """
        if self.is_zero():
            return 0
        if self.conductor == 1:
            return 1 if self.nums[0] > 0 else -1
        rung = self._float_real()
        if rung is not None and abs(rung[0]) > rung[1]:
            return 1 if rung[0] > 0 else -1

        def sign(value, bound):
            if abs(value.real) > bound:
                return 1 if value.real > 0 else -1
            return None

        return _mp_ladder(self, sign, "the sign")

    def floor(self) -> int:
        """The integer floor of a real cyclotomic number, exact: rationals
        directly, irrationals by certifying the signs of x - k and
        x - (k + 1) for k the floor of a float value: the float64 rung's
        (`_float_real` on the `_unit_parts` table) when its error is
        below 1/2, else mpmath's."""
        if self.conductor == 1:
            return self.nums[0] // self.den
        rung = self._float_real()
        if rung is not None and 2 * rung[1] < self.den:
            k = math.floor(rung[0]) // self.den
        else:
            k = math.floor(self.approx().real)
        while (self - k).real_sign() < 0:
            k -= 1
        while (self - (k + 1)).real_sign() > 0:
            k += 1
        return k

    def as_root_of_unity(self) -> tuple[int, int] | None:
        """Return (k, m) with self = e^(2 pi i k/m), gcd(k, m) = 1, or None.

        `_root_phase` with rho^2 = 1 decides, exactly; the exponent it
        returns is reduced to lowest terms."""
        phase = _root_phase(self.conductor, self.nums, self.den, 1)
        if phase is None:
            return None
        j, order = phase
        g = math.gcd(j, order)
        return j // g, order // g

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        try:
            coeffs = [[str(f.numerator), str(f.denominator)] for f in self.coeffs()]
        except ValueError as exc:  # past the int-string digit limit
            raise _digit_limit_error() from exc
        return {"N": self.conductor, "c": coeffs}

    @staticmethod
    def from_json_dict(obj) -> "Cyclotomic":
        if not isinstance(obj, dict) or "N" not in obj or "c" not in obj:
            raise InputError(f"not a scalar object: {obj!r}")
        n = obj["N"]
        if type(n) is not int or n < 1:
            raise InputError(f"bad conductor {_conductor_text(n)}")
        if n > CONDUCTOR_CAP:
            raise ConductorLimitError(f"conductor {_conductor_text(n)} exceeds cap {CONDUCTOR_CAP}")
        coeffs = obj["c"]
        phi = euler_phi(n)
        if not isinstance(coeffs, list) or len(coeffs) != phi:
            raise InputError(f"scalar at conductor {n} needs {phi} coefficients")
        fracs = []
        for pair in coeffs:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(type(x) not in (int, str) for x in pair)
            ):
                raise InputError(f"bad coefficient entry {pair!r}")
            p, q = (_coefficient_entry(x, pair) for x in pair)
            if q == 0:
                raise InputError("zero denominator in scalar coefficient")
            fracs.append(Fraction(p, q))
        den = 1
        for f in fracs:
            den = _lcm(den, f.denominator)
        return Cyclotomic(n, tuple(int(f * den) for f in fracs), den)

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Cyclotomic({self})"

    def __str__(self):
        if self.conductor == 1:
            return str(Fraction(self.nums[0], self.den))
        terms = []
        for i, f in enumerate(self.coeffs()):
            if f == 0:
                continue
            if i == 0:
                terms.append(str(f))
            else:
                unit = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                if f == 1:
                    terms.append(unit)
                elif f == -1:
                    terms.append(f"-{unit}")
                else:
                    terms.append(f"{f}*{unit}")
        out = " + ".join(terms).replace("+ -", "- ")
        return out or "0"


def _float_real(nums, cosines) -> tuple[float, float] | None:
    """(v, bound): v = sum_k nums[k] cosines[k] in float64, where
    cosines[k] = math.cos(2 * math.pi * p_k / n) for integers 0 <= p_k < n
    (or math.sin of the same argument), and a bound on the error of v
    (see `real_sign`); or None when a coefficient has absolute value 2^53
    or more, where float64 is not exact."""
    if max(nums) >= _FLOAT_EXACT or min(nums) <= -_FLOAT_EXACT:
        return None
    value = math.fsum(map(operator.mul, nums, cosines))
    return value, sum(map(abs, nums)) * (len(nums) + 32) * 2.0**-50


@lru_cache(maxsize=None)
def _unit_parts(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(cosines, sines): cos and sin of 2 pi k/n, the real and imaginary
    parts of zeta_n^k, for k < phi(n), by math.cos and math.sin."""
    angles = [2 * math.pi * k / n for k in range(euler_phi(n))]
    return tuple(map(math.cos, angles)), tuple(map(math.sin, angles))


def _mp_ladder(x: Cyclotomic, decide, what: str):
    """The mpmath rung of `real_sign` and `_root_phase`: x evaluated at
    30, 120, 480, 2,000 and 8,000 digits, each time with the bound
    (height + 1) 10^(3 - digits) on the error of its real and of its
    imaginary part (height = sum |c_k| / den), until decide(value,
    bound) returns an answer.  Raises NumericError at the ceiling."""
    height = x._height()
    for dps in (30, 120, 480, 2000, 8000):
        with mpmath.workdps(dps):
            bound = (mpmath.mpf(height.numerator) / height.denominator + 1) * mpmath.mpf(10) ** (
                3 - dps
            )
            answer = decide(x._eval_mp(), bound)
            if answer is not None:
                return answer
    raise NumericError(f"could not certify {what} at precision ceiling")


def _root_row(n: int, j: int) -> tuple:
    """The coefficients of zeta_m^j over Q(zeta_n), m = lcm(2, n), j >= 0.
    For odd n, zeta_2n = -zeta_n^((n + 1)/2)."""
    if n % 2 == 0:
        return _power_row(n, j % n)
    row = _power_row(n, j * ((n + 1) // 2) % n)
    return row if j % 2 == 0 else tuple(-v for v in row)


def _root_phase(n: int, nums, den: int, square) -> tuple[int, int] | None:
    """(j, L), 0 <= j < L, with x = rho zeta_L^j, for x = sum_k nums[k]
    zeta_n^k / den, L = 2 lcm(2, n) and rho > 0 with rho^2 = square, an
    int or a Fraction; or None, and then no such j exists.

    Why L: if x / rho = w is a root of unity, w^2 = x^2 / rho^2 lies in
    Q(zeta_n), whose roots of unity have orders dividing h = lcm(2, n),
    so w^2 = zeta_h^j and w = +-zeta_L^j, that is zeta_L^j or
    zeta_L^(j + h).

    Two steps.
    - Guess j = round(L arg(x) / 2 pi) mod L.  The float64 rung reads
      the parts (re, im) of den x by `_float_real` against the
      `_unit_parts` table, with its bound E, and guesses where
      L E < den rho.  Past it (a coefficient of 2^53 or more, or E too
      large), `_mp_ladder` guesses from x, at the first precision whose
      bound B has 8 L B < rho.
    - Test x^2 = rho^2 zeta_h^j exactly on the integer numerators:
      nums^2 q = p den^2 `_root_row(n, j)` for rho^2 = p/q.
    Proof.  Let x = rho zeta_L^j', so the point read is R e^(i theta),
    theta = 2 pi j'/L, with R = den rho (float64) or rho (mpmath).  The
    float64 parts are each off by under E/7 (`real_sign`), so the point
    by under E/4 < R/(4L); the mpmath parts by under B, so the point by
    under sqrt(2) B < R/(4L).  Its angle is off by at most
    arcsin(1/(4L)) <= pi/(8L), 1/16 of a step 2 pi/L.  atan2 (faithfully
    rounded), the scaling by L/2 pi and the rounding of the test
    L E < R add under 2^-30 of a step, since the exact test needs the
    rows of Q(zeta_n), which `TABLE_PHI_CAP` allows only up to n = 9,240,
    so L < 2^15.  The guess is thus within 1/2 of j' and rounds to j'
    mod L (at theta = pi to +-L/2, the same): it is exact for every rho
    times a root of unity.  If the test passes, x = +-rho zeta_L^j is
    such a value, so its exponent is its guess j, and no sign step is
    needed.  If it fails, x is not rho zeta_L^j, and a value
    rho zeta_L^j' would have been guessed as j': no exponent exists.
    """
    order = 2 * _lcm(2, n)
    p, q = square.numerator, square.denominator
    # the square first: past TABLE_PHI_CAP it refuses the field before
    # any table of phi(n) floats is built
    squared = [v * q for v in _mul_nums(n, nums, nums)]
    cosines, sines = _unit_parts(n)
    re, im = _float_real(nums, cosines), _float_real(nums, sines)
    if re is not None and (order * re[1]) ** 2 < den * den * square:
        j = round(math.atan2(im[0], re[0]) * order / (2 * math.pi))
    else:

        def guess(value, bound):
            if (8 * order * bound) ** 2 * q < p:
                return int(mpmath.nint(mpmath.arg(value) * order / (2 * mpmath.pi)))
            return None

        j = _mp_ladder(Cyclotomic(n, tuple(nums), den), guess, "the root of unity")
    j %= order
    scale = p * den * den
    if squared != [v * scale for v in _root_row(n, j)]:
        return None
    return j, order


# ---------------------------------------------------------------------------
# module-level constructors and helpers
# ---------------------------------------------------------------------------


def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity e^(2 pi i k/n)."""
    if n < 1:
        raise InputError(f"bad root order {_conductor_text(n)}")
    if n > CONDUCTOR_CAP:
        raise ConductorLimitError(f"conductor {_conductor_text(n)} exceeds cap {CONDUCTOR_CAP}")
    k %= n
    g = math.gcd(k, n) if k else n
    n, k = n // g, k // g
    if n == 1:
        return Cyclotomic.from_rational(1)
    if n == 2:
        return Cyclotomic.from_rational(-1)
    return Cyclotomic(n, _power_row(n, k), 1)


def rational(q) -> Cyclotomic:
    return Cyclotomic.from_rational(q)


ZERO = rational(0)
ONE = rational(1)


def from_angle(fr) -> Cyclotomic:
    """e^(2 pi i fr) for a rational fr."""
    fr = Fraction(fr)
    rem = fr - math.floor(fr)
    return zeta(rem.denominator, rem.numerator)


def cyc_sum(values) -> Cyclotomic:
    total = ZERO
    for v in values:
        total = total + v
    return total


@lru_cache(maxsize=None)
def sqrt_int(n: int) -> Cyclotomic:
    """Exact positive square root of a non-negative integer, built once
    per n.

    Uses quadratic Gauss sums: sqrt(2) = z8 + z8^-1, sqrt(p) = g_p for
    p = 1 mod 4 and -i g_p for p = 3 mod 4, where g_p = sum_a zeta_p^(a^2).
    """
    if n < 0:
        raise InputError("sqrt_int needs a non-negative integer")
    if n == 0:
        return ZERO
    square_part = 1
    f = n
    p = 2
    while p * p <= f:
        while f % (p * p) == 0:
            f //= p * p
            square_part *= p
        p += 1
    result = rational(square_part)
    m = f
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            result = result * _sqrt_prime(p)
        p += 1
    if m > 1:
        result = result * _sqrt_prime(m)
    return result


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> Cyclotomic:
    if p == 2:
        return zeta(8, 1) + zeta(8, 7)
    g = cyc_sum(zeta(p, (a * a) % p) for a in range(p))
    if p % 4 == 1:
        return g
    return zeta(4, 3) * g
