"""The ring route of `validate_modular` against the full products.

On data that declare a fusion ring and pass every earlier check,
`validate_modular` decides `balancing`, `gauss_identity`,
`verlinde_integral` and `verlinde_matches_ring` by
`modular._ring_equations`, one pass over the ring table.
`tests.helpers.full_route_validate_modular` decides them by (S T)^3,
tau+ tau- and `verlinde_table`, as before,
`tests.helpers.two_pass_ring_equations` is the route as two passes, and
`tests.helpers.triple_product_balancing` checks the balancing equation
in its T form by triple products.  The reports must be
equal, byte for byte in JSON, on valid data and on tampered data, where
the ring route gives up and the full routes name the failure.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import corpus, fusion, modular
from mtcbound.cyclotomic import ZERO, Cyclotomic, euler_phi, rational, zeta
from mtcbound.errors import MtcError
from mtcbound.fusion import FusionRing
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    _ring_equations,
    _twist_exponents,
    box_tensor,
    double,
    reverse,
    validate_modular,
)
from mtcbound.pointed import abelian_double, metric_modular_data
from tests.helpers import (
    full_route_validate_modular,
    mixed,
    random_metric_group,
    relabelled,
    triple_product_balancing,
    two_pass_ring_equations,
)


def modular_fixtures() -> list:
    """(label, datum) for the 13 fixtures with modular data."""
    out = []
    for name in corpus.fixture_names():
        md = corpus.build(name).modular
        if md is not None:
            out.append((name, md))
    assert len(out) == 13
    return out


def rank_12_products() -> list:
    """The four rank-12 data that the benchmark's matrix workload
    validates: toric code and double semion, each with Ising and its
    reverse."""
    ising = corpus.build("ising").modular
    return [
        (f"{name} x {label}", box_tensor(corpus.build(name).modular, chiral))
        for name in ("toric_code", "double_semion")
        for label, chiral in (("ising", ising), ("reverse(ising)", reverse(ising)))
    ]


def seeded_metric_data(count: int = 8) -> list:
    rng = random.Random(1717)
    return [
        (f"metric {mg.orders}", metric_modular_data(mg))
        for mg in (random_metric_group(rng, max_size=32) for _ in range(count))
    ]


def small_data() -> list:
    return modular_fixtures() + rank_12_products() + seeded_metric_data()


def ring_equations(md: ModularData) -> tuple:
    """`_ring_equations` with the twist exponents that `validate_modular`
    passes it."""
    where, order, exponents = _twist_exponents(md)
    assert where is None
    return _ring_equations(md, order, exponents)


def rank_144_double() -> ModularData:
    return double(box_tensor(corpus.build("toric_code").modular, corpus.build("ising").modular))


def ring_fixtures() -> list:
    """(name, datum) for every shipped fixture whose modular section
    declares a ring, freshly loaded from its file."""
    out = []
    for name in corpus.fixture_names():
        md = corpus.load_shipped(name).modular
        if md is not None and md.ring is not None:
            out.append((name, md))
    return out


def assert_routes_agree(md, label) -> None:
    ours, full = validate_modular(md), full_route_validate_modular(md)
    assert ours.to_json_dict() == full.to_json_dict(), label


def with_s(md: ModularData, rows) -> ModularData:
    return ModularData(s=tuple(map(tuple, rows)), t=md.t, unit_index=md.unit_index, ring=md.ring)


def with_ring_table(md: ModularData, table) -> ModularData:
    ring = md.ring
    bad = FusionRing.from_table(ring.labels, ring.unit, ring.dual, table)
    return ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=bad)


def multiplicity_raised(md: ModularData, p: int, delta: int) -> ModularData:
    table = md.ring.table.astype(object)
    table[p % len(table), 3] += delta
    return with_ring_table(md, table)


def columns_swapped(md: ModularData, a: int, b: int) -> ModularData:
    rows = [list(row) for row in md.s]
    for row in rows:
        row[a], row[b] = row[b], row[a]
    return with_s(md, rows)


def labels_swapped_in_s(md: ModularData, a: int, b: int) -> ModularData:
    """Rows and columns a and b of S swapped: S stays symmetric."""
    perm = list(range(md.rank))
    perm[a], perm[b] = b, a
    rows = tuple(md.s)
    return with_s(md, [[rows[x][y] for y in perm] for x in perm])


def row_conjugated(md: ModularData, i: int, column_too: bool) -> ModularData:
    rows = [list(row) for row in md.s]
    rows[i] = [x.conj() for x in rows[i]]
    if column_too:
        for j, row in enumerate(rows):
            if j != i:
                row[i] = row[i].conj()
    return with_s(md, rows)


def twist_squared(md: ModularData, i: int) -> ModularData:
    return twists_rotated(md, {i}, md.t[i])


def twists_rotated(md: ModularData, labels, root) -> ModularData:
    """T_i times root for each label i: for a self-dual label or a dual
    pair, every check before balancing still passes."""
    t = tuple(x * root if i in labels else x for i, x in enumerate(md.t))
    return ModularData(s=md.s, t=t, unit_index=md.unit_index, ring=md.ring)


def dual_relabelled(md: ModularData) -> ModularData:
    """The declared dual with the images of the last two labels swapped."""
    ring = md.ring
    dual = list(ring.dual)
    dual[-1], dual[-2] = dual[-2], dual[-1]
    bad = FusionRing.from_table(ring.labels, ring.unit, tuple(dual), ring.table)
    return ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=bad)


def twist_tampers(md: ModularData) -> list:
    """(label, datum): the first self-dual label but the unit with its
    twist negated, and the first dual pair with both twists times
    zeta_3, where the datum has such labels.  Every check before
    balancing still passes."""
    dual, u = md.ring.dual, md.unit_index
    self_dual = [i for i, d in enumerate(dual) if d == i != u]
    pairs = [i for i, d in enumerate(dual) if d > i]
    out = [("a self-dual twist negated", twists_rotated(md, {i}, zeta(2))) for i in self_dual[:1]]
    out += [
        ("a dual pair's twists times zeta_3", twists_rotated(md, {i, dual[i]}, zeta(3)))
        for i in pairs[:1]
    ]
    return out


def tampers(md: ModularData) -> list:
    """(label, datum): the tampers of one datum of rank >= 3."""
    r, u = md.rank, md.unit_index
    a, b = [x for x in range(r) if x != u][:2]
    twisted = next((i for i in range(r) if md.t[i] * md.t[i] != md.t[i]), a)
    return twist_tampers(md) + [
        ("multiplicity + 1", multiplicity_raised(md, len(md.ring.table) // 2, 1)),
        ("unit-row multiplicity + 1", multiplicity_raised(md, 0, 1)),
        ("multiplicity 2^70", multiplicity_raised(md, 1, 2**70)),
        ("two S columns swapped", columns_swapped(md, a, b)),
        ("two labels swapped in S", labels_swapped_in_s(md, a, b)),
        ("one S row conjugated", row_conjugated(md, a, False)),
        ("one S row and column conjugated", row_conjugated(md, a, True)),
        ("one twist squared", twist_squared(md, twisted)),
        ("dual relabelled", dual_relabelled(md)),
    ]


class TestRingRoute:
    def test_valid_ring_bearing_data_take_the_route(self):
        for label, md in small_data():
            assert md.ring is not None and validate_modular(md).ok, label
            assert ring_equations(md) == (True, True), label

    def test_reports_match_the_full_routes(self):
        for label, md in small_data():
            assert_routes_agree(md, label)

    def test_large_doubles(self):
        d_z3 = double(corpus.build("d_z3").modular)
        rank_144 = rank_144_double()
        for label, md in (("double(d_z3)", d_z3), ("rank-144 double", rank_144)):
            assert ring_equations(md) == (True, True), label
            assert_routes_agree(md, label)
        assert_routes_agree(multiplicity_raised(d_z3, 4000, 1), "double(d_z3), N + 1")

    def test_ring_less_data_take_the_full_routes(self, monkeypatch):
        def refuse(md):
            raise AssertionError("ring route on ring-less data")

        monkeypatch.setattr(modular, "_ring_equations", refuse)
        for name in ("ising", "fibonacci", "d_z3"):
            md = corpus.build(name).modular
            bare = ModularData(s=md.s, t=md.t, unit_index=md.unit_index)
            assert validate_modular(bare).ok, name
            assert_routes_agree(bare, name)

    def test_tampers_match_the_full_routes(self):
        for label, md in small_data():
            if md.rank < 3:
                continue
            for tamper, bad in tampers(md):
                assert_routes_agree(bad, (label, tamper))
                report = validate_modular(bad)
                if tamper.startswith(("multiplicity", "unit-row")):
                    assert "verlinde_matches_ring" in report.failed_names(), (label, tamper)

    def test_twist_tampers_reach_balancing(self):
        reached = 0
        for label, md in small_data():
            if md.rank < 3:
                continue
            for tamper, bad in twist_tampers(md):
                report = validate_modular(bad)
                assert report.failed_names()[0] == "balancing", (label, tamper)
                assert ring_equations(bad) == (True, False), (label, tamper)
                assert_routes_agree(bad, (label, tamper))
                reached += 1
        assert reached >= 20

    def test_twists_against_the_triple_products(self):
        # (B) from the rotated S entries against the T form by one
        # product per (T, T, S) slot triple, wherever (B) runs
        compared = 0
        for label, md in small_data():
            for tamper, bad in [("none", md)] + (tampers(md) if md.rank >= 3 else []):
                verlinde, balancing = ring_equations(bad)
                if verlinde:
                    assert balancing == triple_product_balancing(bad), (label, tamper)
                    compared += 1
        assert compared >= 100

    def test_t_times_zeta_8(self):
        # T_u = zeta_8 != 1: the twists, and so (B), do not change
        for label, md in small_data():
            rotated = twists_rotated(md, range(md.rank), zeta(8))
            assert rotated.t[rotated.unit_index] != 1, label
            assert ring_equations(rotated) == (True, True), label
            assert_routes_agree(rotated, label)

    def test_the_rotation_conductor_can_exceed_the_data(self):
        # L = lcm(order of the twists, conductor of the S entries).  The
        # toric code's twists (1, 1, 1, -1) have order 2, though its S
        # and T are rational; elsewhere L may exceed S's conductor only
        def conductors(md):
            _, order, _ = _twist_exponents(md)
            s = md.s.table().conductor
            return math.lcm(order, s), s, md.conductor()

        fixtures = {name: conductors(md) for name, md in modular_fixtures()}
        above_data = {name for name, (c, _, n) in fixtures.items() if c > n}
        above_s = {name for name, (c, s, _) in fixtures.items() if c > s}
        assert above_data == {"toric_code", "double_toric_code"}
        assert above_s == above_data | {
            "double_semion",
            "ising",
            "double_of_semion",
            "double_of_double_semion",
            "double_ising",
        }
        assert fixtures["toric_code"] == (2, 1, 1)

    def test_python_integers_take_the_route(self, monkeypatch):
        # a False here would fall back to the full routes, whose report
        # is the same, so the CLI alone cannot tell a broken object branch
        monkeypatch.setattr(fusion, "_INT64_LIMIT", 0)
        monkeypatch.setattr(fusion, "_FLOAT_EXACT", 0)
        for label, md in small_data():
            assert ring_equations(md) == (True, True), label

    def test_one_label_per_block(self, monkeypatch):
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 8)
        for label, md in rank_12_products() + [("double(ising)", double(corpus.ising().modular))]:
            assert ring_equations(md) == (True, True), label
            assert_routes_agree(md, label)
            for tamper, bad in tampers(md):
                assert_routes_agree(bad, (label, tamper))

    def test_a_budget_of_1_gives_one_label_per_block_in_both_callers(self, monkeypatch):
        # associativity in fusion, the fused (V) and (B) loop here: one
        # splitter, each caller reading the one budget at call time
        split, blocks = fusion._label_blocks, []

        def spy(made, itemsize, span=None):
            blocks.append(list(split(made, itemsize, span)))
            return iter(blocks[-1])

        _, md = rank_12_products()[0]
        for module in (fusion, modular):
            monkeypatch.setattr(module, "_label_blocks", spy)
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 8)
        assert fusion.validate(md.ring).ok
        assert len(blocks) == 1
        assert ring_equations(md) == (True, True)
        assert blocks == [[(i, i + 1) for i in range(md.rank)]] * 2

    def test_the_route_reads_conj_s_against_the_declared_dual(self):
        # d_z3 has a complex S and the dual a -> -a; with the identity
        # declared as dual, conj(S) = C S fails, and the route must say
        # so itself, although the Verlinde equation does not read C
        md = corpus.build("d_z3").modular
        ring = md.ring
        assert ring.dual != tuple(range(md.rank))
        identity = FusionRing.from_table(ring.labels, ring.unit, tuple(range(md.rank)), ring.table)
        bad = ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=identity)
        assert ring_equations(bad) == (False, False)
        assert_routes_agree(bad, "d_z3 with the identity as dual")

    def test_above_the_product_table_cap_the_full_routes_run(self, monkeypatch):
        monkeypatch.setattr(modular, "_PRODUCT_TABLE_CAP", 0)
        for label, md in rank_12_products():
            assert ring_equations(md) == (False, False), label
            assert validate_modular(md).ok, label

    def test_above_the_cap_balancing_takes_the_full_route(self, monkeypatch):
        # the rotation table needs 288 coefficients on these data, the
        # product table of (V) 175
        monkeypatch.setattr(modular, "_PRODUCT_TABLE_CAP", 200)
        for label, md in rank_12_products()[2:]:
            assert ring_equations(md) == (True, False), label
            assert validate_modular(md).ok, label
            assert_routes_agree(md, label)


SMALL = [md for _, md in small_data()]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    which=st.integers(0, len(SMALL) - 1),
    ring_row=st.booleans(),
    position=st.integers(0, 10**6),
    other=st.integers(0, 10**6),
    delta=st.sampled_from((-1, 1, 2)),
    symmetric=st.booleans(),
)
def test_random_tamper_of_a_ring_row_or_an_s_slot(
    which, ring_row, position, other, delta, symmetric
):
    md = SMALL[which]
    if ring_row:
        bad = multiplicity_raised(md, position, delta)
    else:
        r = md.rank
        i, j = position % r, position // r % r
        values = md.s.entries + tuple(-x for x in md.s.entries)
        rows = [list(row) for row in md.s]
        rows[i][j] = values[other % len(values)]
        if symmetric:
            rows[j][i] = rows[i][j]
        bad = with_s(md, rows)
    assert_routes_agree(bad, (which, ring_row, position, other, delta, symmetric))


@pytest.mark.parametrize("orders", [(2, 2), (3,), (4, 2)])
def test_a_ring_missing_every_row_of_one_pair(orders):
    # the left side of the Verlinde equation is zero at (1, 1), the
    # right side is not
    md = metric_modular_data(abelian_double(orders))
    table = md.ring.table
    keep = (table[:, 0] != 1) | (table[:, 1] != 1)
    assert_routes_agree(with_ring_table(md, table[keep]), orders)


class TestGaussIdentityFromTheRoute:
    def test_valid_ring_bearing_data_form_no_gauss_sum_and_no_twist(self, monkeypatch):
        # the route proves balancing and tau+ tau- = D^2 together, and
        # theta_u = T_u / T_u = 1, so neither tau nor theta is formed
        def refuse(*args):
            raise AssertionError("formed on the ring route")

        data = ring_fixtures() + [("rank-144 double", rank_144_double())]
        assert len(data) == 14
        monkeypatch.setattr(modular, "_gauss_sum", refuse)
        monkeypatch.setattr(ModularData, "theta", refuse)
        for label, md in data:
            assert validate_modular(md).ok, label
            # pointed data take the certificate there; the checks one by
            # one take the ring route on every datum
            assert modular._axiom_checks(md).ok, label

    def test_the_full_routes_still_name_the_gauss_identity(self):
        # the negated twist and ring-less copies of the rank-144 double
        # that CI validates, and its zero-twist toric code
        md = rank_144_double()
        dual, u = md.ring.dual, md.unit_index
        i = next(i for i, d in enumerate(dual) if d == i != u)
        twisted = twists_rotated(md, {i}, zeta(2))
        bare, bare_twisted = (
            ModularData(s=x.s, t=x.t, unit_index=x.unit_index) for x in (md, twisted)
        )
        toric = corpus.load_shipped("toric_code").modular
        zero = ModularData(
            s=toric.s, t=tuple(toric.t)[:3] + (ZERO,), unit_index=toric.unit_index, ring=toric.ring
        )
        for label, datum in (
            ("twisted", twisted),
            ("ring-less", bare),
            ("ring-less twisted", bare_twisted),
            ("zero twist", zero),
        ):
            assert_routes_agree(datum, label)
        checks = {c.name: c for c in validate_modular(twisted).checks}
        assert not checks["balancing"].ok and not checks["gauss_identity"].ok
        assert validate_modular(bare).ok
        assert "gauss_identity" in validate_modular(zero).failed_names()


POINTED_FIXTURES = (
    "trivial",
    "semion",
    "double_semion",
    "toric_code",
    "d_z3",
    "double_trivial",
    "double_of_semion",
    "double_of_double_semion",
    "double_toric_code",
)


def pointed_data() -> list:
    """(label, datum): every valid pointed datum with a group ring here,
    freshly built: the 9 pointed fixtures, double(d_z3) and the data of
    seeded `random_metric_group` draws."""
    data = [(name, corpus.build(name).modular) for name in POINTED_FIXTURES]
    data.append(("double(d_z3)", double(corpus.build("d_z3").modular)))
    return data + seeded_metric_data(12)


def certified_copies(md: ModularData, rng: random.Random) -> list:
    """(label, datum): md, a relabelled copy with the unit away from
    label 0, T times a seeded nonzero scalar (so T_u != 1, the twists
    theta = T / T_u unchanged) and a copy with mixed conductors."""
    perm = list(range(md.rank))
    rng.shuffle(perm)
    if perm[0] == md.unit_index and md.rank > 1:
        perm[0], perm[1] = perm[1], perm[0]
    scale = rng.choice((zeta(8), -zeta(5), rational(3), zeta(12) * rational(2)))
    return [
        ("as made", md),
        ("relabelled", relabelled(md, perm)),
        ("T scaled", twists_rotated(md, range(md.rank), scale)),
        ("mixed conductors", mixed(md)),
    ]


def fallback_tampers(md: ModularData, rng: random.Random) -> list:
    """(label, datum): seeded tampers of valid pointed data that the
    certificate must refuse, each changing the data.  The declared dual
    with a dual pair made self-dual or two self-dual labels paired,
    every S entry negated at a non-square rank, one twist
    times a root of unity, one ring row moved to another product, and
    one S slot set to another value."""
    r, u = md.rank, md.unit_index
    out = []
    dual = list(md.ring.dual)
    others = [a for a in range(r) if a != u]
    # a dual pair made self-dual, or two self-dual labels paired
    swaps = [(a, b) for a in others for b in others if a < b and dual[a] == b]
    swaps += [(a, b) for a in others for b in others if a < b and dual[a] == a and dual[b] == b]
    if swaps:
        a, b = rng.choice(swaps)
        dual[a], dual[b] = (a, b) if dual[a] == b else (b, a)
        ring = FusionRing.from_table(md.ring.labels, md.ring.unit, tuple(dual), md.ring.table)
        out.append(("dual swapped", ModularData(s=md.s, t=md.t, unit_index=u, ring=ring)))
    if math.isqrt(r) ** 2 != r:
        s = FactoredMatrix(tuple(-x for x in md.s.entries), md.s.slots)
        out.append(("S negated", ModularData(s=s, t=md.t, unit_index=u, ring=md.ring)))
    if r > 1:
        label = rng.choice(others)
        out.append(("twist", twists_rotated(md, {label}, zeta(rng.choice((2, 3, 4, 8))))))
        table = md.ring.table.copy()
        p = rng.randrange(len(table))
        table[p, 2] = (table[p, 2] + rng.randrange(1, r)) % r
        out.append(("ring row moved", with_ring_table(md, table)))
        rows = [list(row) for row in md.s]
        i, j = rng.randrange(r), rng.randrange(r)
        values = [x for x in md.s.entries + tuple(-x for x in md.s.entries) if x != rows[i][j]]
        rows[i][j] = rng.choice(values)
        out.append(("S slot", with_s(md, rows)))
    return out


class TestPointedCertificate:
    """`validate_modular` answers valid pointed data with a group ring
    by `modular._pointed_certificate`, and every other datum by its
    checks one by one; `tests.helpers.full_route_validate_modular`, which
    never reads the certificate, is the oracle."""

    def test_the_pointed_fixtures_take_the_certificate(self):
        taken = [name for name, md in modular_fixtures() if md.pointed_certificate()]
        assert sorted(taken) == sorted(POINTED_FIXTURES)

    def test_valid_pointed_data_form_no_matrix_product_and_no_twist(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("formed on the certificate route")

        data = pointed_data()
        monkeypatch.setattr(ModularData, "packed_s_squared", refuse)
        monkeypatch.setattr(ModularData, "theta", refuse)
        for name in ("verlinde_table", "_balancing_sides", "_gauss_sum", "_slot_gauss_sum"):
            monkeypatch.setattr(modular, name, refuse)
        monkeypatch.setattr(modular, "_ring_equations", refuse)
        for label, md in data:
            report = validate_modular(md)
            assert report.ok and len(report.checks) == 12, label
            assert tuple(c.name for c in report.checks) == modular._MODULAR_CHECKS, label

    def test_the_checks_one_by_one_name_the_same_checks(self):
        # the certificate's report lists `_MODULAR_CHECKS`; the checks
        # one by one list the same names, in the same order
        for label, md in pointed_data():
            names = tuple(c.name for c in modular._axiom_checks(md).checks)
            assert names == modular._MODULAR_CHECKS, label

    def test_seeded_copies_match_the_full_routes(self):
        rng = random.Random(3607)
        data = [(name, md) for name, md in modular_fixtures() if name in POINTED_FIXTURES]
        data += [(f"double({name})", double(corpus.build(name).modular))
                 for name in corpus.BASE_MODULAR_FIXTURES]
        for _ in range(50):
            mg = random_metric_group(rng, max_size=32)
            data.append((f"metric {mg.orders}", metric_modular_data(mg)))
        certified = non_square = 0
        for label, md in data:
            for copy, datum in certified_copies(md, rng):
                assert_routes_agree(datum, (label, copy))
                if label.startswith("metric"):
                    assert datum.pointed_certificate(), (label, copy)
                    assert validate_modular(datum).ok, (label, copy)
                    certified += 1
                    non_square += math.isqrt(datum.rank) ** 2 != datum.rank
        assert certified == 200 and non_square >= 40

    def test_seeded_tampers_fall_back_to_the_checks(self):
        # a tamper may give valid data again (a semion twist times -1 is
        # the antisemion's); the certificate holds exactly on those
        rng = random.Random(3608)
        data = [(name, md) for name, md in modular_fixtures() if name in POINTED_FIXTURES]
        for _ in range(30):
            mg = random_metric_group(rng, max_size=24)
            data.append((f"metric {mg.orders}", metric_modular_data(mg)))
        refused = {}
        for label, md in data:
            for copy, datum in certified_copies(md, rng)[1:]:
                for tamper, bad in fallback_tampers(datum, rng):
                    full = full_route_validate_modular(bad)
                    assert validate_modular(bad).to_json_dict() == full.to_json_dict()
                    assert bad.pointed_certificate() == full.ok, (label, copy, tamper)
                    refused[tamper] = refused.get(tamper, 0) + (not full.ok)
        assert len(refused) == 5 and min(refused.values()) >= 50, refused

    def test_the_two_checks_only_validation_needs(self):
        # the toric code with e and m swapped in the declared dual, and
        # the semion with S negated: the group structure and the
        # pairing hold, but the dual is not negation and D < 0
        toric = corpus.build("toric_code").modular
        ring = toric.ring
        moved = FusionRing.from_table(ring.labels, ring.unit, (0, 2, 1, 3), ring.table)
        swapped = ModularData(s=toric.s, t=toric.t, ring=moved)
        semion = corpus.build("semion").modular
        negated = ModularData(s=[[-x for x in row] for row in semion.s], t=semion.t, ring=semion.ring)
        for label, bad, failed in (
            ("dual swapped", swapped, ["dual_matches_ring"]),
            ("S negated", negated, ["total_dim"]),
        ):
            assert not bad.pointed_certificate(), label
            assert validate_modular(bad).failed_names() == failed, label
            assert_routes_agree(bad, label)

    def test_conductor_refusals_name_s_before_t(self):
        # S read before T, as by the checks one by one: with S and T both
        # past the table cap, S's conductor is named
        toric = corpus.build("toric_code").modular

        def wide(n):
            nums = [0] * euler_phi(n)
            nums[0], nums[n // 4] = 3, 4
            return Cyclotomic(n, tuple(nums), 5)

        s = [list(row) for row in toric.s]
        s[3][3] = s[3][3] * wide(100052)
        t = list(toric.t)
        t[1] = wide(100060)
        for label, datum in (
            ("S", ModularData(s=s, t=toric.t, ring=toric.ring)),
            ("T", ModularData(s=toric.s, t=t, ring=toric.ring)),
            ("S and T", ModularData(s=s, t=t, ring=toric.ring)),
        ):
            outcomes = []
            for route in (validate_modular, modular._axiom_checks):
                with pytest.raises(MtcError) as raised:
                    route(datum)
                outcomes.append((type(raised.value), str(raised.value)))
            assert outcomes[0] == outcomes[1], label
            assert str(100052 if "S" in label else 100060) in outcomes[0][1], label


def seeded_tampers(md: ModularData, rng: random.Random) -> list:
    """(label, datum): one ring row's multiplicity moved, one S slot set
    to another entry (or its negative), and one twist times a root of
    unity, at seeded places."""
    r = md.rank
    values = md.s.entries + tuple(-x for x in md.s.entries)
    rows = [list(row) for row in md.s]
    i, j = rng.randrange(r), rng.randrange(r)
    rows[i][j] = rng.choice(values)
    label = rng.randrange(r)
    return [
        ("ring row", multiplicity_raised(md, rng.randrange(10**6), rng.choice((-1, 1, 2)))),
        ("S slot", with_s(md, rows)),
        ("twist", twists_rotated(md, {label}, zeta(rng.choice((2, 3, 4, 8))))),
    ]


def assert_fused_pass_agrees(data, seed) -> set:
    """`_ring_equations` against its two-pass oracle on each datum, on
    its `tampers` and on seeded tampers of it; returns the outcomes."""
    rng = random.Random(seed)
    outcomes = set()
    for label, md in data:
        fixed = tampers(md) if md.rank >= 3 else []
        for tamper, bad in [("none", md)] + fixed + seeded_tampers(md, rng) + seeded_tampers(md, rng):
            where, order, exponents = _twist_exponents(bad)
            if where is not None:
                continue
            ours = _ring_equations(bad, order, exponents)
            assert ours == two_pass_ring_equations(bad, order, exponents), (label, tamper)
            outcomes.add(ours)
    return outcomes


class TestFusedPass:
    # a (V) failure wins over a (B) one, and (B) fails alone on a
    # negated self-dual twist; both as in two passes
    ALL = {(True, True), (True, False), (False, False)}

    def test_against_two_passes(self):
        assert assert_fused_pass_agrees(small_data(), 3101) == self.ALL

    def test_against_two_passes_at_one_label_per_block(self, monkeypatch):
        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 8)
        assert assert_fused_pass_agrees(small_data(), 3102) == self.ALL

    def test_large_doubles_against_two_passes(self):
        data = [("double(d_z3)", double(corpus.build("d_z3").modular))]
        data.append(("rank-144 double", rank_144_double()))
        assert assert_fused_pass_agrees(data, 3103) == self.ALL

    def test_the_rotation_table_is_capped_by_the_codes_that_occur(self, monkeypatch):
        # the rank-144 double reads 26 of its 7 x 16 (slot, shift) codes, so
        # its rotation table takes 26 x 16 = 416 coefficients, the (V)
        # table 343; a table of every code would take 7 x 16 x 16 = 1792
        md = rank_144_double()
        where, order, exponents = _twist_exponents(md)
        for cap, want in ((416, (True, True)), (415, (True, False))):
            monkeypatch.setattr(modular, "_PRODUCT_TABLE_CAP", cap)
            assert _ring_equations(md, order, exponents) == want, cap
            assert two_pass_ring_equations(md, order, exponents) == want, cap
