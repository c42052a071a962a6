"""Built-in example categories.

Every fixture is constructed programmatically from exact data and
shipped as JSON under ``mtcbound/data``.  The notes inside each file
say which independent routes were used to cross-check the numbers; no
entry is copied from a table without a second derivation backing it.
"""

from __future__ import annotations

import importlib.resources
from fractions import Fraction
from itertools import product

from .cyclotomic import rational, sqrt_int, zeta
from .fusion import FusionRing, direct_sum, ring_product
from .modular import ModularData, double, ring_from_verlinde
from .pointed import MetricGroup, metric_modular_data
from .specfile import CategorySpecFile

_POINTED_NOTES = (
    "S and T generated from the metric group by the exact pointed construction.",
    "Fusion ring equals the group law and was cross-checked against the Verlinde formula.",
    "Central charge cross-checked against the Gauss-Milgram signature.",
)


def _pointed_file(name: str, orders: tuple, q: dict, extra_notes: tuple = ()) -> CategorySpecFile:
    mg = MetricGroup(orders=orders, q=q)
    md = metric_modular_data(mg)
    return CategorySpecFile(
        name=name,
        modular=md,
        metric=mg,
        notes=_POINTED_NOTES + extra_notes,
    )


def trivial() -> CategorySpecFile:
    return _pointed_file("trivial", (1,), {(0,): Fraction(0)})


def semion() -> CategorySpecFile:
    return _pointed_file(
        "semion",
        (2,),
        {(0,): Fraction(0), (1,): Fraction(1, 4)},
        ("Central charge 1 mod 8; fails the boundary gate.",),
    )


def double_semion() -> CategorySpecFile:
    q = {
        (0, 0): Fraction(0),
        (0, 1): Fraction(3, 4),
        (1, 0): Fraction(1, 4),
        (1, 1): Fraction(0),
    }
    return _pointed_file(
        "double_semion",
        (2, 2),
        q,
        ("One Lagrangian subgroup: the diagonal order-2 subgroup.",),
    )


def toric_code() -> CategorySpecFile:
    q = {
        (0, 0): Fraction(0),
        (0, 1): Fraction(0),
        (1, 0): Fraction(0),
        (1, 1): Fraction(1, 2),
    }
    return _pointed_file(
        "toric_code",
        (2, 2),
        q,
        ("Two Lagrangian subgroups, generated by (0,1) and by (1,0).",),
    )


def d_z3() -> CategorySpecFile:
    q = {
        (g, c): Fraction(g * c, 3) % 1
        for g, c in product(range(3), range(3))
    }
    return _pointed_file(
        "d_z3",
        (3, 3),
        q,
        ("Hyperbolic form on Z3 x its character group; two Lagrangian subgroups.",),
    )


def ising() -> CategorySpecFile:
    one = rational(1)
    zero = rational(0)
    half = Fraction(1, 2)
    r2 = sqrt_int(2)
    s = tuple(
        tuple(e * half for e in row)
        for row in ((one, one, r2), (one, one, -r2), (r2, -r2, zero))
    )
    t = (one, -one, zeta(16))
    md = ModularData(s=s, t=t)
    ring = ring_from_verlinde(md, labels=("1", "psi", "sigma"))
    return CategorySpecFile(
        name="ising",
        modular=ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=ring),
        notes=(
            "S entries are the exact half-integer and sqrt(2)/2 values;"
            " sqrt(2) is expanded in the 8th cyclotomic field.",
            "Fusion ring derived from S by the Verlinde formula"
            " (sigma x sigma = 1 + psi).",
            "Central charge 1/2 mod 8, agreeing between the direct and the"
            " squared Gauss-sum extractions.",
        ),
    )


def fibonacci() -> CategorySpecFile:
    one = rational(1)
    golden = one + zeta(5) + zeta(5) ** 4
    big_d = zeta(20) - zeta(20) ** 9
    inv_d = big_d.inverse()
    s = tuple(
        tuple(e * inv_d for e in row) for row in ((one, golden), (golden, -one))
    )
    md = ModularData(s=s, t=(one, zeta(5) ** 2))
    ring = ring_from_verlinde(md, labels=("1", "tau"))
    return CategorySpecFile(
        name="fibonacci",
        modular=ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=ring),
        notes=(
            "The golden ratio is written as 1 + z5 + z5^4 and the total"
            " dimension as z20 - z20^9; both were checked numerically"
            " against (1+sqrt 5)/2 and sqrt(2+phi).",
            "Fusion ring derived from S by the Verlinde formula"
            " (tau x tau = 1 + tau).",
            "Central charge 14/5 mod 8, agreeing between the direct and the"
            " squared Gauss-sum extractions.",
        ),
    )


_DOUBLE_NOTES = (
    "Built as the base data box-tensored with its reverse.",
    "Central charge 0 mod 8 by twist cancellation; verified exactly.",
)


def _double_file(name: str, base: CategorySpecFile) -> CategorySpecFile:
    return CategorySpecFile(
        name=name,
        modular=double(base.modular),
        notes=(f"Double of the {base.name} fixture.",) + _DOUBLE_NOTES,
    )


def double_trivial() -> CategorySpecFile:
    return _double_file("double_trivial", trivial())


def double_of_semion() -> CategorySpecFile:
    return _double_file("double_of_semion", semion())


def double_of_double_semion() -> CategorySpecFile:
    return _double_file("double_of_double_semion", double_semion())


def double_toric_code() -> CategorySpecFile:
    return _double_file("double_toric_code", toric_code())


def double_ising() -> CategorySpecFile:
    return _double_file("double_ising", ising())


def double_fibonacci() -> CategorySpecFile:
    return _double_file("double_fibonacci", fibonacci())


def _m2_ring() -> FusionRing:
    labels = ("e11", "e12", "e21", "e22")
    fusion = {
        (0, 0, 0): 1,
        (0, 1, 1): 1,
        (1, 2, 0): 1,
        (1, 3, 1): 1,
        (2, 0, 2): 1,
        (2, 1, 3): 1,
        (3, 2, 2): 1,
        (3, 3, 3): 1,
    }
    return FusionRing(labels=labels, unit=(0, 3), dual=(0, 2, 1, 3), fusion=fusion)


def m2() -> CategorySpecFile:
    return CategorySpecFile(
        name="m2",
        ring=_m2_ring(),
        notes=(
            "2x2 matrix units: e_ij e_kl = delta_jk e_il, unit e11 + e22.",
            "One component with a one-dimensional corner ring.",
        ),
    )


def _fibonacci_ring() -> FusionRing:
    return FusionRing(
        labels=("1", "tau"),
        unit=(0,),
        dual=(0, 1),
        fusion={(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1},
    )


def _z2_ring() -> FusionRing:
    return FusionRing(
        labels=("0", "1"),
        unit=(0,),
        dual=(0, 1),
        fusion={(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
    )


def fib_plus_z2() -> CategorySpecFile:
    ring = direct_sum(_fibonacci_ring(), _z2_ring(), tags=("fib", "z2"))
    return CategorySpecFile(
        name="fib_plus_z2",
        ring=ring,
        notes=(
            "Direct sum of the Fibonacci ring and the Z2 group ring;"
            " decomposes into two components.",
        ),
    )


def m2_times_fib() -> CategorySpecFile:
    ring = ring_product(_m2_ring(), _fibonacci_ring())
    return CategorySpecFile(
        name="m2_times_fib",
        ring=ring,
        notes=(
            "Product of the 2x2 matrix-unit ring with the Fibonacci ring;"
            " every corner is a relabeled Fibonacci ring.",
        ),
    )


FIXTURES = {
    fn.__name__: fn
    for fn in (
        trivial,
        semion,
        double_semion,
        toric_code,
        ising,
        fibonacci,
        d_z3,
        double_trivial,
        double_of_semion,
        double_of_double_semion,
        double_toric_code,
        double_ising,
        double_fibonacci,
        m2,
        fib_plus_z2,
        m2_times_fib,
    )
}

BASE_MODULAR_FIXTURES = (
    "trivial",
    "semion",
    "double_semion",
    "toric_code",
    "ising",
    "fibonacci",
)


def fixture_names() -> list:
    return list(FIXTURES)


def build(name: str) -> CategorySpecFile:
    return FIXTURES[name]()


def shipped_text(name: str) -> str:
    """The JSON bytes shipped with the package, as text."""
    resource = importlib.resources.files("mtcbound").joinpath(f"data/{name}.json")
    return resource.read_text(encoding="utf-8")


def load_shipped(name: str) -> CategorySpecFile:
    import json

    from .specfile import CategorySpecFile as CSF

    return CSF.from_json_dict(json.loads(shipped_text(name)))


def write_all(directory) -> list:
    """Regenerate every fixture file, creating the directory if needed;
    returns the paths written."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for name in FIXTURES:
        path = os.path.join(str(directory), f"{name}.json")
        build(name).save(path)
        paths.append(path)
    return paths
