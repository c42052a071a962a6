"""Shared generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd

from mtcbound.cyclotomic import ZERO
from mtcbound.errors import NonIntegralVerlinde
from mtcbound.pointed import MetricGroup

_FACTOR_CHOICES = (2, 3, 4, 5, 6, 7, 8, 9, 16, 25)


def random_metric_group(rng: random.Random, max_size: int = 64) -> MetricGroup:
    """A random nondegenerate metric group with |A| <= max_size.

    Quadratic forms are drawn through their Gram presentation: diagonal
    values q(e_u) = c_u / 2n_u with n_u c_u even, off-diagonal pair
    values b_uv / gcd(n_u, n_v).  Every such table is a well-defined
    quadratic form, so rejection only happens on degeneracy.
    """
    while True:
        n_factors = rng.randint(1, 3)
        orders = []
        size = 1
        for _ in range(n_factors):
            n = rng.choice(_FACTOR_CHOICES)
            if size * n > max_size:
                continue
            orders.append(n)
            size *= n
        if not orders:
            continue
        orders = tuple(orders)
        s = len(orders)

        diag = []
        for n in orders:
            c = rng.randrange(2 * n)
            if n % 2 == 1 and c % 2 == 1:
                c = (c + 1) % (2 * n)
            diag.append(Fraction(c, 2 * n))
        off = {}
        for u in range(s):
            for v in range(u + 1, s):
                g = gcd(orders[u], orders[v])
                off[(u, v)] = Fraction(rng.randrange(g), g)

        q = {}
        for a in product(*(range(n) for n in orders)):
            val = sum((a[u] * a[u] * diag[u] for u in range(s)), Fraction(0))
            val += sum(
                (a[u] * a[v] * off[(u, v)] for u in range(s) for v in range(u + 1, s)),
                Fraction(0),
            )
            q[a] = val % 1
        mg = MetricGroup(orders=orders, q=q)
        if len(mg.radical()) == 1:
            return mg


def brute_force_lagrangians(mg: MetricGroup) -> list:
    """Independent oracle: try every subset of size sqrt(|A|)."""
    from itertools import combinations
    from math import isqrt

    n = mg.size
    root = isqrt(n)
    if root * root != n:
        return []
    zero = tuple(0 for _ in mg.orders)
    out = []
    rest = [a for a in mg.elements if a != zero]
    for combo in combinations(rest, root - 1):
        subset = set(combo) | {zero}
        if any(mg.qval(a) != 0 for a in subset):
            continue
        if any(mg.add(a, b) not in subset for a in subset for b in subset):
            continue
        out.append(tuple(sorted(subset)))
    return sorted(out)


# ---------------------------------------------------------------------------
# object-per-entry reference routes for the packed matrix layer
# ---------------------------------------------------------------------------


def object_matmul(a, b):
    """Matrix product over Q(zeta_N), one Cyclotomic operation per term."""
    out = []
    for arow in a:
        orow = []
        for j in range(len(b[0])):
            acc = ZERO
            for m, av in enumerate(arow):
                if not av.is_zero() and not b[m][j].is_zero():
                    acc = acc + av * b[m][j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def object_scale_columns(a, diag):
    return tuple(tuple(v * diag[j] for j, v in enumerate(row)) for row in a)


def object_verlinde(md) -> dict:
    """N_ij^k = sum_m S_im S_jm conj(S_km) / S_um, entry by entry."""
    r = md.rank
    s = md.s
    inv_unit_row = [s[md.unit_index][m].inverse() for m in range(r)]
    conj_s = [[s[k][m].conj() for m in range(r)] for k in range(r)]
    out: dict = {}
    for i in range(r):
        for j in range(r):
            weights = [s[i][m] * s[j][m] * inv_unit_row[m] for m in range(r)]
            for k in range(r):
                acc = ZERO
                for m in range(r):
                    acc = acc + weights[m] * conj_s[k][m]
                val = acc.as_rational()
                if val is None or val.denominator != 1 or val < 0:
                    raise NonIntegralVerlinde(f"N[{i},{j},{k}] = {acc}")
                if val:
                    out[(i, j, k)] = int(val)
    return out
