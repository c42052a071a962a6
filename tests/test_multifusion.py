import pytest

from mtcbound.errors import AmbiguousBlock
from mtcbound.fusion import FusionRing, direct_sum, group_ring, ring_product, validate
from mtcbound.multifusion import (
    block_partition,
    corner_ring,
    morita_witness,
    unit_summands_check,
)
from tests.test_fusion_ring import fibonacci_ring, m2_ring


def test_unit_summands_check():
    assert unit_summands_check(m2_ring()) == []
    assert unit_summands_check(fibonacci_ring()) == []


def test_unit_summands_check_flags_bad_dual():
    ring = m2_ring()
    # swap duals of the two unit summands: they stop being self-adjoint
    mutant = FusionRing(labels=ring.labels, unit=(0, 3), dual=(3, 2, 1, 0), fusion=ring.fusion)
    bad = unit_summands_check(mutant)
    assert (0, "not self-dual") in bad


def test_m2_blocks():
    dec = block_partition(m2_ring())
    assert dec.block_of == {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    assert dec.components == ((0, 1),)
    c0 = corner_ring(dec, 0)
    assert c0.rank == 1 and validate(c0).ok
    c1 = corner_ring(dec, 1)
    assert c1.rank == 1 and validate(c1).ok


def test_fibonacci_single_block():
    dec = block_partition(fibonacci_ring())
    assert dec.components == ((0,),)
    assert corner_ring(dec, 0) == fibonacci_ring()


def test_direct_sum_two_components():
    ds = direct_sum(fibonacci_ring(), group_ring((2,)), tags=("fib", "z2"))
    dec = block_partition(ds)
    assert dec.components == ((0,), (1,))
    corners = [corner_ring(dec, i) for i in range(2)]
    ranks = sorted(c.rank for c in corners)
    assert ranks == [2, 2]
    # block-diagonality against the raw tensor
    for (x, y, z), v in ds.fusion.items():
        cx = dec.component_of_unit(dec.block_of[x][0])
        assert dec.component_of_unit(dec.block_of[y][0]) == cx
        assert dec.component_of_unit(dec.block_of[z][0]) == cx


def test_m2_plus_trivial():
    ds = direct_sum(m2_ring(), group_ring(()), tags=("m", "t"))
    dec = block_partition(ds)
    assert dec.components == ((0, 1), (2,))


def test_product_blocks_are_products():
    prod = ring_product(m2_ring(), fibonacci_ring())
    dec = block_partition(prod)
    assert dec.components == ((0, 1),)
    c = corner_ring(dec, 0)
    assert c.rank == 2
    # corner of (M2 x Fib) at e11 is Fibonacci after the label bijection
    mapping = {0: "(e11,1)", 1: "(e11,t)"}
    assert list(c.labels) == [mapping[i] for i in range(2)]
    fib = fibonacci_ring()
    assert c.fusion == fib.fusion
    assert c.dual == fib.dual


def test_ambiguous_block_raised():
    # two unit summands that fail orthogonality: p0 * p1 = p0
    ring = FusionRing(
        labels=("a", "b"),
        unit=(0, 1),
        dual=(0, 1),
        fusion={(0, 0, 0): 1, (0, 1, 0): 1, (1, 1, 1): 1},
    )
    with pytest.raises(AmbiguousBlock):
        block_partition(ring)


def test_morita_witness_m2():
    dec = block_partition(m2_ring())
    w = morita_witness(dec, 0)
    assert w.row_labels == ("e11", "e12")
    assert w.col_labels == ("e11", "e21")
    assert w.dims_agree
    assert w.corner_dims == (1.0, 1.0)


def test_morita_witness_product():
    dec = block_partition(ring_product(m2_ring(), fibonacci_ring()))
    w = morita_witness(dec, 0)
    assert w.dims_agree
    # each corner is a Fibonacci copy: global dimension 1 + phi^2
    import math

    phi = (1 + math.sqrt(5)) / 2
    assert abs(w.corner_dims[0] - (1 + phi * phi)) < 1e-8


def test_decomposition_json_shape():
    dec = block_partition(m2_ring())
    blob = dec.to_json_dict()
    assert set(blob) == {"components", "blocks", "corners"}
    assert blob["blocks"]["e21"] == [1, 0]
    assert len(blob["corners"]) == 2
