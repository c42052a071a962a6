"""Top-level acceptance gate.

One test per criterion; the -v line for each test is the pass/fail
line.  Runtime-limited criteria assert their own wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from mtcbound import corpus
from mtcbound.errors import DualMismatch, MtcError
from mtcbound.fusion import FusionRing, frobenius_pairing, group_ring, pairing_symmetry_check
from mtcbound.fusion import validate as validate_ring
from mtcbound.modular import (
    ModularData,
    box_tensor,
    central_charge,
    central_charge_float_oracle,
    double,
    gauss_sums,
    reverse,
    validate_modular,
    verlinde,
)
from mtcbound.multifusion import block_partition, corner_ring
from mtcbound.obstruction import candidate_search, canonical_double_candidate, verdict
from mtcbound.pointed import (
    lagrangian_subgroups,
    metric_modular_data,
    milgram_signature,
    subgroup_indicator,
    validate_metric,
)

from tests.helpers import brute_force_lagrangians, random_metric_group

MODULAR_BASES = corpus.BASE_MODULAR_FIXTURES + ("d_z3",)


def test_criterion_1_fixture_validation_and_tampering_under_1s():
    t0 = time.monotonic()
    for name in corpus.fixture_names():
        spec = corpus.load_shipped(name)
        if spec.metric is not None:
            assert validate_metric(spec.metric).ok, name
        if spec.ring is not None:
            assert validate_ring(spec.ring).ok, name
        if spec.modular is not None:
            assert validate_modular(spec.modular).ok, name
        assert spec.cross_section_checks().ok, name

    # one broken axiom per tampered variant, each named precisely
    toric = corpus.build("toric_code").modular
    one = toric.t[0]
    report = validate_modular(ModularData(s=toric.s, t=(one,) * 4, ring=toric.ring))
    assert report.first_failure().name == "balancing"

    ising = corpus.build("ising").modular
    rows = [list(r) for r in ising.s]
    rows[0][1] = -rows[0][1]
    report = validate_modular(ModularData(s=tuple(tuple(r) for r in rows), t=ising.t))
    assert report.first_failure().name == "s_symmetric"

    t = list(toric.t)
    t[3] = one + one
    report = validate_modular(ModularData(s=toric.s, t=tuple(t), ring=toric.ring))
    assert "theta_root_of_unity" in report.failed_names()

    z2z2 = group_ring((2, 2))
    fusion = dict(z2z2.fusion)
    del fusion[(1, 2, 3)]
    fusion[(1, 2, 0)] = 1  # reroute e*m so (e e) m != e (e m)
    broken = FusionRing(labels=z2z2.labels, unit=z2z2.unit, dual=z2z2.dual, fusion=fusion)
    assert "associativity" in validate_ring(broken).failed_names()

    fib = corpus.build("fibonacci").modular.ring
    fusion = dict(fib.fusion)
    del fusion[(0, 1, 1)]  # break the unit row
    broken = FusionRing(labels=fib.labels, unit=fib.unit, dual=fib.dual, fusion=fusion)
    assert "unit_law" in validate_ring(broken).failed_names()

    from mtcbound.pointed import MetricGroup

    degenerate = MetricGroup(
        orders=(2, 2), q={a: Fraction(0) for a in product(range(2), range(2))}
    )
    assert "nondegenerate" in validate_metric(degenerate).failed_names()

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"


def test_criterion_2_central_charges_with_float_oracle_under_1s():
    t0 = time.monotonic()
    expected = {
        "trivial": Fraction(0),
        "toric_code": Fraction(0),
        "double_semion": Fraction(0),
        "semion": Fraction(1),
        "ising": Fraction(1, 2),
        "fibonacci": Fraction(14, 5),
    }
    for name, value in expected.items():
        md = corpus.build(name).modular
        assert central_charge(md) == value, name
        got = central_charge_float_oracle(md)
        drift = min(abs(got - float(value)), abs(got - float(value) - 8), abs(got - float(value) + 8))
        assert drift < 1e-6, (name, got)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"


def test_criterion_3_verdicts_match_the_obstruction():
    for name in ("semion", "ising", "fibonacci"):
        report = verdict(corpus.build(name).modular)
        assert report.verdict == "NoBoundary_CentralCharge", name

    toric = corpus.build("toric_code")
    report = verdict(toric.modular, pointed_hint=toric.metric)
    assert report.verdict == "ExactBoundaries"
    assert report.subgroups == (((0, 0), (0, 1)), ((0, 0), (1, 0)))
    assert brute_force_lagrangians(toric.metric) == list(report.subgroups)

    dsem = corpus.build("double_semion")
    report = verdict(dsem.modular, pointed_hint=dsem.metric)
    assert report.verdict == "ExactBoundaries"
    assert len(report.subgroups) == 1
    assert brute_force_lagrangians(dsem.metric) == list(report.subgroups)


def test_criterion_4_doubling_closure_under_30s():
    t0 = time.monotonic()
    for name in MODULAR_BASES:
        base = corpus.build(name).modular
        dbl = double(base)
        report = verdict(dbl)
        assert report.verdict != "NoBoundary_CentralCharge", name
        assert report.central_charge == 0, name
        diag = canonical_double_candidate(base)
        assert diag in candidate_search(dbl), name
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.3f}s"


def test_criterion_5_pointed_cross_oracle_under_60s():
    t0 = time.monotonic()
    rng = random.Random(0)
    groups = [random_metric_group(rng, max_size=64) for _ in range(20)]

    for mg in groups:  # (a) holds: the two signature routes agree exactly
        assert milgram_signature(mg) == central_charge(metric_modular_data(mg)), mg.orders

    mismatches = []
    for mg in groups:  # (b) as stated: filter-off candidates vs subgroups
        md = metric_modular_data(mg)
        expected = sorted(subgroup_indicator(mg, s) for s in lagrangian_subgroups(mg))
        found = candidate_search(md)
        if found != expected:
            mismatches.append((mg.orders, len(found), len(expected)))
        for vec in expected:  # the true containment, one direction only
            assert vec in found, (mg.orders, vec)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.3f}s"
    assert not mismatches, (
        "filter-off candidate sets differ from the Lagrangian indicator sets "
        f"on {len(mismatches)} of 20 sampled groups (orders, candidates, subgroups): "
        f"{mismatches}. Multiplicity-level conditions admit non-subgroup "
        "solutions, e.g. Z25 with q = 7x^2/25: Sum n_i = 5 can place "
        "multiplicity 2 on elements of <5>. With the fusion filter on, the "
        "sets coincide (see test_obstruction.py)."
    )


def test_criterion_6_verlinde_matches_declared_fusion_everywhere():
    for name in corpus.fixture_names():
        spec = corpus.build(name)
        if spec.modular is None:
            continue
        assert verlinde(spec.modular) == spec.modular.ring.fusion, name
        if spec.metric is not None:
            mg = spec.metric
            group_law = {
                (mg.index(a), mg.index(b), mg.index(mg.add(a, b))): 1
                for a in mg.elements
                for b in mg.elements
            }
            assert verlinde(spec.modular) == group_law, name


def test_criterion_7_multifusion_decomposition():
    dec = block_partition(corpus.build("m2").ring)
    assert len(dec.components) == 1
    corner = corner_ring(dec, 0)
    assert corner.rank == 1 and corner.fusion == {(0, 0, 0): 1}

    dec = block_partition(corpus.build("fib_plus_z2").ring)
    assert len(dec.components) == 2
    corners = [corner_ring(dec, comp[0]) for comp in dec.components]
    shapes = sorted(tuple(sorted(c.fusion.items())) for c in corners)
    fib = tuple(sorted({(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}.items()))
    z2 = tuple(sorted({(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}.items()))
    assert shapes == sorted([fib, z2])

    ring = corpus.build("m2_times_fib").ring
    dec = block_partition(ring)
    assert len(dec.components) == 1
    corner = corner_ring(dec, 0)
    assert corner.labels == ("(e11,1)", "(e11,tau)")
    assert corner.fusion == {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    assert corner.dual == (0, 1) and corner.unit == (0,)

    # exhaustive N-scan: fusion is block diagonal in the matrix-calculus sense
    for name in ("m2", "fib_plus_z2", "m2_times_fib"):
        ring = corpus.build(name).ring
        dec = block_partition(ring)
        blocks = dec.block_of
        for (x, y, z), value in ring.fusion.items():
            assert value >= 0
            if value == 0:
                continue
            assert blocks[x][1] == blocks[y][0], (name, x, y, z)
            assert blocks[z] == (blocks[x][0], blocks[y][1]), (name, x, y, z)
        r = ring.rank
        for x in range(r):
            for y in range(r):
                if blocks[x][1] == blocks[y][0]:
                    continue
                for z in range(r):
                    assert ring.n(x, y, z) == 0, (name, x, y, z)


def test_criterion_8_frobenius_pairing_is_a_perfect_dual_pairing():
    for name in corpus.fixture_names():
        spec = corpus.build(name)
        ring = spec.effective_ring()
        if ring is None:
            continue
        pairing = frobenius_pairing(ring)
        assert pairing.permutation == ring.dual, name
        assert pairing_symmetry_check(ring) == [], name

    # mutant: claim every label is self-dual in D(Z3), where it is not
    good = corpus.build("d_z3").modular.ring
    mutant = FusionRing(
        labels=good.labels,
        unit=good.unit,
        dual=tuple(range(good.rank)),
        fusion=good.fusion,
    )
    with pytest.raises((DualMismatch, MtcError)):
        frobenius_pairing(mutant)


def test_criterion_9_exact_gauss_sum_properties_over_many_pairs():
    names = list(MODULAR_BASES)
    mds = {name: corpus.build(name).modular for name in names}

    for name, md in mds.items():
        plus, minus, total = gauss_sums(md)
        assert plus * minus == total * total, name
        assert central_charge(reverse(md)) == (-central_charge(md)) % 8, name
        rev = reverse(reverse(md))
        assert rev.s == md.s and rev.t == md.t, name

    pairs = list(combinations(names, 2))
    assert len(pairs) >= 10
    for left, right in pairs:
        a, b = mds[left], mds[right]
        assert central_charge(box_tensor(a, b)) == (
            central_charge(a) + central_charge(b)
        ) % 8, (left, right)
