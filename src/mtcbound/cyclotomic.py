"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A scalar is stored as an integer coefficient vector over the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N) = Q[x]/Phi_N(x), together with a
positive common denominator.  All field operations are exact; floating
point only ever enters through :meth:`Cyclotomic.approx` and the
sign/argument helpers, which escalate precision until the answer is
certified by an explicit error bound.

Mixing conductors is handled by embedding both operands into the lcm
conductor.  The lcm is capped (`CONDUCTOR_CAP`), and dense reduction
tables are refused beyond `TABLE_PHI_CAP` basis elements, so a runaway
computation fails loudly instead of thrashing.
"""

from __future__ import annotations

import math
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


_REDUCTION: dict[int, tuple[int, tuple[tuple[int, ...], ...]]] = {}
_POWER_ROWS: dict[int, list[tuple[int, ...]]] = {}


def _reduction(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(phi, rows) with rows[k-phi] = x^k mod Phi_n for phi <= k <= 2phi-2."""
    cached = _REDUCTION.get(n)
    if cached is not None:
        return cached
    phi = euler_phi(n)
    if phi > TABLE_PHI_CAP:
        raise ConductorLimitError(
            f"conductor {n} needs {phi} basis elements, table cap is {TABLE_PHI_CAP}"
        )
    poly = cyclotomic_polynomial(n)
    base = tuple(-poly[i] for i in range(phi))
    rows = [base]
    for _ in range(phi + 1, 2 * phi - 1):
        prev = rows[-1]
        over = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if over:
            row = [r + over * b for r, b in zip(row, base)]
        rows.append(tuple(row))
    result = (phi, tuple(rows))
    _REDUCTION[n] = result
    return result


def _power_row(n: int, e: int) -> tuple[int, ...]:
    """Coefficient vector of x^e mod Phi_n, 0 <= e < n."""
    phi, rows = _reduction(n)
    cache = _POWER_ROWS.get(n)
    if cache is None:
        cache = [tuple(1 if i == j else 0 for i in range(phi)) for j in range(min(phi, n))]
        _POWER_ROWS[n] = cache
    while len(cache) <= e:
        prev = cache[-1]
        over = prev[phi - 1]
        row = [0] + list(prev[: phi - 1])
        if over:
            base = rows[0]
            row = [r + over * b for r, b in zip(row, base)]
        cache.append(tuple(row))
    return cache[e]


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
            row = rows[k - phi]
            for t, rt in enumerate(row):
                if rt:
                    c[t] += ck * rt
    return tuple(c[:phi])


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def _embed_nums(nums: tuple[int, ...], n_from: int, n_to: int) -> tuple[int, ...]:
    """Rewrite a coefficient vector from Q(zeta_n_from) in Q(zeta_n_to)."""
    if n_to == n_from:
        return nums
    phi = euler_phi(n_to)
    step = n_to // n_from
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

    def is_rational(self) -> bool:
        return self.conductor == 1

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
            raise ConductorLimitError(f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")
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
            raise ConductorLimitError(f"lcm conductor {n} exceeds cap {CONDUCTOR_CAP}")
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
        """1/x.  When |x|^2 = x conj(x) is rational (roots of unity, the
        entries of a pointed S, 1/sqrt(n)) this is conj(x)/|x|^2; other
        values take the extended Euclid with Phi_N."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.conductor == 1:
            return Cyclotomic(1, (self.den,), self.nums[0])
        n = self.conductor
        conj = self.conj()
        # x = a/d and conj(x) = c/e give |x|^2 = (a c)/(d e), so when
        # a c = p is rational, 1/x = c d/p
        norm = _mul_nums(n, self.nums, conj.nums)
        if not any(norm[1:]):
            return Cyclotomic(n, tuple(v * self.den for v in conj.nums), norm[0])
        target = [Fraction(v, self.den) for v in self.nums]
        modulus = [Fraction(c) for c in cyclotomic_polynomial(n)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        def polymod(p, q):
            p = list(p)
            dq = deg(q)
            lead = q[dq]
            quo = [Fraction(0)] * (max(len(p) - dq, 1))
            for k in range(len(p) - 1, dq - 1, -1):
                if p[k]:
                    c = p[k] / lead
                    quo[k - dq] = c
                    for i in range(dq + 1):
                        p[k - dq + i] -= c * q[i]
            return quo, p[: dq] if dq > 0 else [Fraction(0)]

        r0, r1 = modulus, target
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while deg(r1) > 0:
            quo, rem = polymod(r0, r1)
            r0, r1 = r1, rem
            # s_next = s0 - quo*s1
            prod = [Fraction(0)] * (len(quo) + len(s1))
            for i, qc in enumerate(quo):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            prod[i + j] += qc * sc
            nxt = [Fraction(0)] * max(len(s0), len(prod))
            for i, v in enumerate(s0):
                nxt[i] += v
            for i, v in enumerate(prod):
                nxt[i] -= v
            s0, s1 = s1, nxt
        c = r1[deg(r1)]  # nonzero constant: gcd(self, Phi_n) up to scale
        inv = [v / c for v in s1]
        phi = euler_phi(n)
        # reduce degree below phi (xgcd keeps deg(s1) < deg(Phi), but be safe)
        while len(inv) > phi:
            top = inv.pop()
            if top:
                row = _power_row(n, len(inv))
                for t, rt in enumerate(row):
                    if rt:
                        inv[t] += top * rt
        inv += [Fraction(0)] * (phi - len(inv))
        den = 1
        for v in inv:
            den = _lcm(den, v.denominator)
        return Cyclotomic(n, tuple(int(v * den) for v in inv), den)

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
        phi = euler_phi(n)
        acc = [0] * phi
        for i, v in enumerate(self.nums):
            if v:
                row = _power_row(n, (n - i) % n)
                for t, rt in enumerate(row):
                    if rt:
                        acc[t] += v * rt
        return Cyclotomic(n, tuple(acc), self.den)

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

    def real_sign(self) -> int:
        """Sign of a real cyclotomic number, certified.

        Raises NumericError if the value cannot be certified nonzero at the
        precision ceiling (never happens for exact zero, which returns 0).
        """
        if self.is_zero():
            return 0
        if self.conductor == 1:
            return 1 if self.nums[0] > 0 else -1
        height = self._height()
        for dps in (30, 120, 480, 2000, 8000):
            with mpmath.workdps(dps):
                val = self._eval_mp()
                err = (mpmath.mpf(height.numerator) / height.denominator + 1) * mpmath.mpf(
                    10
                ) ** (3 - dps)
                if abs(val.real) > err:
                    return 1 if val.real > 0 else -1
        raise NumericError("could not certify the sign at precision ceiling")

    def floor(self) -> int:
        """The integer floor of a real cyclotomic number, exact: rationals
        directly, irrationals by certifying the signs of x - k and
        x - (k + 1) for k the floor of the float value."""
        if self.conductor == 1:
            return self.nums[0] // self.den
        k = math.floor(self.approx().real)
        while (self - k).real_sign() < 0:
            k -= 1
        while (self - (k + 1)).real_sign() > 0:
            k += 1
        return k

    def as_root_of_unity(self) -> tuple[int, int] | None:
        """Return (k, m) with self = e^(2 pi i k/m), gcd(k, m) = 1, or None.

        Sound and complete: the only roots of unity in Q(zeta_N) form the
        cyclic group of order lcm(2, N), so a full scan settles membership.
        A float-guided fast path avoids the scan in the common case.
        """
        if self.is_zero():
            return None
        if self.conductor == 1:
            r = self.as_rational()
            if r == 1:
                return (0, 1)
            if r == -1:
                return (1, 2)
            return None
        one = Cyclotomic.from_rational(1)
        if self * self.conj() != one:
            return None
        m = _lcm(2, self.conductor)
        target = self.embed(m)

        def packaged(j: int) -> tuple[int, int]:
            j %= m
            if j == 0:
                return (0, 1)
            g = math.gcd(j, m)
            return (j // g, m // g)

        # fast path: guess the exponent from the float argument
        val = self.approx()
        guess = round(math.atan2(val.imag, val.real) * m / (2 * math.pi))
        for j in (guess, guess + 1, guess - 1):
            if target == zeta(m, j % m):
                return packaged(j)
        if m > 10**5:
            raise NumericError(f"root-of-unity scan refused for order {m}")
        w = one
        zm = zeta(m, 1)
        for j in range(m):
            if target == w:
                return packaged(j)
            w = w * zm
        return None

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "N": self.conductor,
            "c": [[str(f.numerator), str(f.denominator)] for f in self.coeffs()],
        }

    @staticmethod
    def from_json_dict(obj) -> "Cyclotomic":
        if not isinstance(obj, dict) or "N" not in obj or "c" not in obj:
            raise InputError(f"not a scalar object: {obj!r}")
        n = obj["N"]
        if type(n) is not int or n < 1:
            raise InputError(f"bad conductor {n!r}")
        if n > CONDUCTOR_CAP:
            raise ConductorLimitError(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
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
            try:
                p, q = int(pair[0]), int(pair[1])
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad coefficient entry {pair!r}") from exc
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


# ---------------------------------------------------------------------------
# module-level constructors and helpers
# ---------------------------------------------------------------------------


def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity e^(2 pi i k/n)."""
    if n < 1:
        raise InputError(f"bad root order {n}")
    if n > CONDUCTOR_CAP:
        raise ConductorLimitError(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
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


def cyc_prod(values) -> Cyclotomic:
    total = ONE
    for v in values:
        total = total * v
    return total


def sqrt_int(n: int) -> Cyclotomic:
    """Exact positive square root of a non-negative integer.

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
