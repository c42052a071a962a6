import math

import pytest

from mtcbound import corpus, fusion
from mtcbound.errors import DualMismatch, InputError, MultiplicityLimitError, PerfectnessFailure
from mtcbound.fusion import (
    FP_MULTIPLICITY_CAP,
    FusionRing,
    direct_sum,
    fp_dimensions,
    frobenius_pairing,
    group_ring,
    pairing_symmetry_check,
    ring_product,
    validate,
)
from mtcbound.multifusion import block_partition, corner_ring
from tests.helpers import per_label_fp_dimensions


def fibonacci_ring():
    return FusionRing(
        labels=("1", "t"),
        unit=(0,),
        dual=(0, 1),
        fusion={(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1},
    )


def ising_ring():
    # labels 1, e (fermion), s (spin); s*s = 1 + e
    f = {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, (2, 0, 2): 1}
    f[(1, 1, 0)] = 1
    f[(1, 2, 2)] = 1
    f[(2, 1, 2)] = 1
    f[(2, 2, 0)] = 1
    f[(2, 2, 1)] = 1
    return FusionRing(labels=("1", "e", "s"), unit=(0,), dual=(0, 1, 2), fusion=f)


def m2_ring():
    # matrix units: e_ij e_kl = delta_jk e_il, dual is transpose
    return FusionRing(
        labels=("e11", "e12", "e21", "e22"),
        unit=(0, 3),
        dual=(0, 2, 1, 3),
        fusion={
            (0, 0, 0): 1,
            (0, 1, 1): 1,
            (1, 2, 0): 1,
            (1, 3, 1): 1,
            (2, 0, 2): 1,
            (2, 1, 3): 1,
            (3, 2, 2): 1,
            (3, 3, 3): 1,
        },
    )


def test_fibonacci_validates():
    report = validate(fibonacci_ring())
    assert report.ok, report.render_text()
    assert [c.name for c in report.checks] == [
        "dual_involution",
        "unit_summands_self_dual",
        "unit_law",
        "associativity",
        "frobenius_reciprocity",
    ]


def test_structural_errors_raise():
    with pytest.raises(InputError):
        FusionRing(labels=("1",), unit=(), dual=(0,), fusion={(0, 0, 0): 1})
    with pytest.raises(InputError):
        FusionRing(labels=("1",), unit=(0, 0), dual=(0,), fusion={(0, 0, 0): 1})
    with pytest.raises(InputError):
        FusionRing(labels=("1", "x"), unit=(0,), dual=(0, 0), fusion={(0, 0, 0): 1})
    with pytest.raises(InputError):
        FusionRing(labels=("1",), unit=(0,), dual=(0,), fusion={(0, 0, 5): 1})
    with pytest.raises(InputError):
        FusionRing(labels=("1",), unit=(0,), dual=(0,), fusion={(0, 0, 0): -1})


def test_duplicate_fusion_triples_rejected():
    blob = {
        "labels": ["1"],
        "unit": [0],
        "dual": [0],
        "fusion": [[0, 0, 0, 1], [0, 0, 0, 1]],
    }
    with pytest.raises(InputError):
        FusionRing.from_json_dict(blob)


def test_json_round_trip():
    ring = ising_ring()
    again = FusionRing.from_json_dict(ring.to_json_dict())
    assert again == ring


def test_broken_associativity_reported():
    # reroute e*m from f to 1 inside Z2xZ2; then (e e) m = m but e (e m) = e
    base = group_ring((2, 2))
    f = dict(base.fusion)
    del f[(1, 2, 3)]
    f[(1, 2, 0)] = 1
    ring = FusionRing(labels=base.labels, unit=base.unit, dual=base.dual, fusion=f)
    report = validate(ring)
    assert "associativity" in report.failed_names()


def test_unit_law_violation_reported():
    f = dict(fibonacci_ring().fusion)
    f[(0, 1, 0)] = 1
    ring = FusionRing(labels=("1", "t"), unit=(0,), dual=(0, 1), fusion=f)
    assert "unit_law" in validate(ring).failed_names()


def test_pairing_fibonacci_identity():
    pm = frobenius_pairing(fibonacci_ring())
    assert pm.permutation == (0, 1)
    assert pm.entries == ((1, 0), (0, 1))
    assert pairing_symmetry_check(fibonacci_ring()) == []


def test_pairing_z3_is_inversion():
    pm = frobenius_pairing(group_ring((3,)))
    assert pm.permutation == (0, 2, 1)
    assert pairing_symmetry_check(group_ring((3,))) == []


def test_pairing_failures():
    f = dict(fibonacci_ring().fusion)
    del f[(1, 1, 0)]
    ring = FusionRing(labels=("1", "t"), unit=(0,), dual=(0, 1), fusion=f)
    with pytest.raises(PerfectnessFailure):
        frobenius_pairing(ring)
    f = dict(fibonacci_ring().fusion)
    f[(1, 1, 0)] = 2
    ring = FusionRing(labels=("1", "t"), unit=(0,), dual=(0, 1), fusion=f)
    with pytest.raises(PerfectnessFailure):
        frobenius_pairing(ring)


def test_dual_mismatch():
    ring = m2_ring()
    mutant = FusionRing(labels=ring.labels, unit=ring.unit, dual=(0, 1, 2, 3), fusion=ring.fusion)
    with pytest.raises(DualMismatch):
        frobenius_pairing(mutant)
    assert "frobenius_reciprocity" in validate(mutant).failed_names()


def test_fp_dimensions():
    d = fp_dimensions(fibonacci_ring())
    assert abs(d[0] - 1.0) < 1e-10
    assert abs(d[1] - (1 + math.sqrt(5)) / 2) < 1e-10
    assert fp_dimensions(group_ring((2,))) == [1.0, 1.0]
    d = fp_dimensions(ising_ring())
    assert abs(d[2] - math.sqrt(2)) < 1e-10


def test_fp_dimensions_refuse_multiplicities_over_the_cap():
    # x x = 1 + n x: d_x = (n + sqrt(n^2 + 4)) / 2
    def ring(n):
        fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): n}
        return FusionRing(labels=("1", "x"), unit=(0,), dual=(0, 1), fusion=fusion)

    d = fp_dimensions(ring(FP_MULTIPLICITY_CAP))
    assert abs(d[1] / FP_MULTIPLICITY_CAP - 1) < 1e-12 and math.isfinite(d[1] ** 2)
    for n in (FP_MULTIPLICITY_CAP + 1, 2**63, 10**400):
        with pytest.raises(MultiplicityLimitError, match=r"N\[1,1,1\]"):
            fp_dimensions(ring(n))


def cap_ring() -> FusionRing:
    """x x = 1 + n x at n = FP_MULTIPLICITY_CAP."""
    fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    fusion[1, 1, 1] = FP_MULTIPLICITY_CAP
    return FusionRing(labels=("1", "x"), unit=(0,), dual=(0, 1), fusion=fusion)


def fp_rings() -> list:
    """(label, ring): every fixture's ring, group_ring((2, 3)), the
    multiplicity-cap ring and every corner that `decompose` builds of a
    fixture's ring."""
    out = []
    for name in corpus.fixture_names():
        ring = corpus.build(name).effective_ring()
        out.append((name, ring))
        dec = block_partition(ring)
        out += [(f"{name} corner {i}", corner_ring(dec, i)) for i in range(dec.unit_count)]
    assert len(out) - sum("corner" in label for label, _ in out) == 16
    return out + [("Z2 x Z3", group_ring((2, 3))), ("cap", cap_ring())]


@pytest.mark.parametrize("block_bytes", [2**21, 8])
def test_fp_dimensions_equal_the_per_label_solves(monkeypatch, block_bytes):
    # the stacked solve, a block of labels per call (one label per block
    # at 8 bytes), gives each label's floats exactly
    monkeypatch.setattr(fusion, "_BLOCK_BYTES", block_bytes)
    for label, ring in fp_rings():
        assert fp_dimensions(ring) == per_label_fp_dimensions(ring), label


def test_fp_dimension_multiplicativity_simple_unit():
    # d_i d_j = sum_k N_{ij}^k d_k holds on simple-unit rings
    for ring in (fibonacci_ring(), ising_ring(), group_ring((2, 3))):
        d = fp_dimensions(ring)
        r = ring.rank
        for i in range(r):
            for j in range(r):
                rhs = sum(ring.n(i, j, k) * d[k] for k in range(r))
                assert abs(d[i] * d[j] - rhs) < 1e-8


def test_ring_product():
    prod = ring_product(m2_ring(), fibonacci_ring())
    assert validate(prod).ok
    assert prod.rank == 8
    assert prod.unit == (0, 6)
    fib2 = ring_product(fibonacci_ring(), fibonacci_ring())
    # (t x t)(t x t) = (1+t) x (1+t)
    i_tt = 3
    targets = {k: v for (a, b, k), v in fib2.fusion.items() if a == i_tt and b == i_tt}
    assert targets == {0: 1, 1: 1, 2: 1, 3: 1}


def test_ring_product_with_trivial():
    triv = group_ring(())
    ring = ising_ring()
    prod = ring_product(triv, ring)
    assert prod.rank == ring.rank
    assert {k: v for k, v in prod.fusion.items()} == ring.fusion


def test_direct_sum_validates():
    ds = direct_sum(fibonacci_ring(), group_ring((2,)), tags=("fib", "z2"))
    assert validate(ds).ok
    assert ds.unit == (0, 2)
    assert frobenius_pairing(ds).permutation == ds.dual
