"""S held once, as its distinct entries and a slot array: the
constructions and the packed gather against their entry-by-entry
oracles."""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import mtcbound
from mtcbound import corpus
from mtcbound.cyclotomic import Cyclotomic, rational, zeta
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    box_tensor,
    double,
    reverse,
)
from mtcbound.pointed import MetricGroup, metric_modular_data
from mtcbound.specfile import CategorySpecFile

from tests.helpers import (
    per_entry_box_tensor,
    per_entry_reverse,
    relabelled,
    row_pack,
)


ONE_HALF = rational(Fraction(1, 2))


def key(e: Cyclotomic) -> tuple:
    return (e.conductor, e.nums, e.den)


def assert_factored(s: FactoredMatrix, rows, label) -> None:
    """s holds the distinct keys of rows in row-major order of first
    appearance, and slots that gather rows back, read-only."""
    order: dict = {}
    for row in rows:
        for e in row:
            order.setdefault(key(e), len(order))
    assert [key(e) for e in s.entries] == list(order), label
    assert s.slots.tolist() == [[order[key(e)] for e in row] for row in rows], label
    assert not s.slots.flags.writeable, label


def assert_same_as_per_entry(md: ModularData, oracle: ModularData, label) -> None:
    """Equal S in value and in each entry's (conductor, nums, den), equal
    T, unit and ring, the same JSON bytes and the same packed S as the
    row pack of the oracle's entries."""
    rows = tuple(oracle.s)
    assert md.s == oracle.s, label
    assert [list(map(key, row)) for row in md.s] == [list(map(key, row)) for row in rows], label
    assert_factored(md.s, rows, label)
    assert list(map(key, md.t)) == list(map(key, oracle.t)), label
    assert md.unit_index == oracle.unit_index, label
    assert md.to_json_dict() == oracle.to_json_dict(), label
    assert json.dumps(md.to_json_dict(), sort_keys=True) == json.dumps(
        oracle.to_json_dict(), sort_keys=True
    ), label
    if md.rank <= 81:  # the indented writer is pure Python: seconds at rank 289
        name = str(label)
        assert (
            CategorySpecFile(name=name, modular=md).dumps()
            == CategorySpecFile(name=name, modular=oracle).dumps()
        ), label
    packed, expected = md.s.packed(), row_pack(rows)
    assert (packed.conductor, packed.den) == (expected.conductor, expected.den), label
    assert packed.nums.dtype == expected.nums.dtype, label
    assert (packed.nums == expected.nums).all(), label


def assert_constructions(md: ModularData, label) -> None:
    """reverse and double of md against the entry-by-entry routes."""
    assert_same_as_per_entry(reverse(md), per_entry_reverse(md), (label, "reverse"))
    assert_same_as_per_entry(
        double(md), per_entry_box_tensor(md, per_entry_reverse(md)), (label, "double")
    )


DATA = Path(mtcbound.__file__).parent / "data"

BASE_DOUBLES = {
    "trivial": "double_trivial",
    "semion": "double_of_semion",
    "double_semion": "double_of_double_semion",
    "toric_code": "double_toric_code",
    "ising": "double_ising",
    "fibonacci": "double_fibonacci",
}


def modular(name: str) -> ModularData:
    return corpus.build(name).modular


def z17() -> ModularData:
    """The Z17 form q(x) = x^2/17: 17 distinct S entries, so its slots
    are uint8 and a Kronecker slot reaches 16 * 17 + 16 = 288."""
    mg = MetricGroup(orders=(17,), q={(x,): Fraction(x * x, 17) for x in range(17)})
    return metric_modular_data(mg)


class TestConstructionsAgainstPerEntry:
    def test_every_modular_fixture(self):
        names = [n for n in corpus.fixture_names() if corpus.build(n).modular is not None]
        assert len(names) == 13
        for name in names:
            assert_constructions(modular(name), name)

    def test_base_doubles_equal_the_shipped_files(self):
        for base, name in BASE_DOUBLES.items():
            shipped = CategorySpecFile.load(DATA / f"{name}.json").modular
            assert_same_as_per_entry(double(modular(base)), shipped, name)

    def test_products_of_bases(self):
        ising, semion = modular("ising"), modular("semion")
        for label, md in (
            ("ising x semion", box_tensor(ising, semion)),
            ("ising x antisemion", box_tensor(ising, reverse(semion))),
            ("ising x fibonacci", box_tensor(ising, modular("fibonacci"))),
        ):
            assert_constructions(md, label)
        d_z3 = modular("d_z3")
        assert_same_as_per_entry(
            box_tensor(d_z3, ising), per_entry_box_tensor(d_z3, ising), "d_z3 x ising"
        )

    def test_narrow_slots_are_widened_before_the_kronecker(self):
        md = z17()
        assert md.s.slots.dtype == np.uint8 and len(md.s.entries) == 17
        product = box_tensor(md, md)
        assert int(product.s.slots.max()) == len(product.s.entries) - 1
        assert_same_as_per_entry(product, per_entry_box_tensor(md, md), "z17 x z17")

    def test_seeded_relabellings(self):
        rng = random.Random(2718)
        names = ("semion", "toric_code", "ising", "fibonacci", "d_z3")
        for _ in range(12):
            a, b = (modular(rng.choice(names)) for _ in range(2))
            a = relabelled(a, rng.sample(range(a.rank), a.rank))
            b = relabelled(b, rng.sample(range(b.rank), b.rank))
            label = (a.rank, b.rank)
            assert_same_as_per_entry(box_tensor(a, b), per_entry_box_tensor(a, b), label)
            assert_constructions(a, label)


class TestNoPerEntryWork:
    def test_box_tensor_multiplies_distinct_entries_once(self, monkeypatch):
        a = double(modular("d_z3"))
        b = box_tensor(modular("toric_code"), modular("ising"))
        calls = []
        multiply = Cyclotomic.__mul__

        def counted(x, y):
            calls.append(1)
            return multiply(x, y)

        monkeypatch.setattr(Cyclotomic, "__mul__", counted)
        md = box_tensor(a, b)
        assert md.rank == 972
        bound = len(a.s.entries) * len(b.s.entries) + len(a.t.entries) * len(b.t.entries)
        assert 0 < len(calls) <= bound

    def test_reverse_conjugates_distinct_entries_once(self, monkeypatch):
        md = double(modular("ising"))
        calls = []
        conj = Cyclotomic.conj

        def counted(x):
            calls.append(1)
            return conj(x)

        monkeypatch.setattr(Cyclotomic, "conj", counted)
        rev = reverse(md)
        assert len(calls) == len(md.s.entries) + len(md.t.entries)
        assert rev.s.slots is md.s.slots and rev.t.slots is md.t.slots


class TestPackAndEquality:
    def test_pack_equals_the_row_pack(self):
        rows_list = [tuple(modular(n).s) for n in ("ising", "fibonacci", "d_z3")]
        # equal values held by distinct objects share one slot
        rows_list.append(((ONE_HALF, rational(Fraction(1, 2))), (zeta(3), zeta(3))))
        rows_list.append(((zeta(4), zeta(5), rational(3)),))  # one row, mixed conductors
        for label, rows in enumerate(rows_list):
            packed, expected = FactoredMatrix.of(rows).packed(), row_pack(rows)
            assert (packed.conductor, packed.den) == (expected.conductor, expected.den), label
            assert packed.nums.dtype == expected.nums.dtype, label
            assert (packed.nums == expected.nums).all(), label
            assert_factored(FactoredMatrix.of(rows), rows, label)

    def test_equality_is_in_value(self):
        i4 = zeta(4)
        i8 = Cyclotomic(8, (0, 0, 1, 0))  # zeta_8^2 = i over conductor 8
        assert i4 == i8 and key(i4) != key(i8)
        a = FactoredMatrix.of(((i4, ONE_HALF), (ONE_HALF, i4)))
        b = FactoredMatrix.of(((i8, ONE_HALF), (ONE_HALF, i8)))
        assert len(b.entries) == 2 and a == b
        assert a != FactoredMatrix.of(((i4, ONE_HALF), (ONE_HALF, -i4)))
        assert a != FactoredMatrix.of(((i4, ONE_HALF),))
        md = modular("ising")
        assert ModularData(s=tuple(md.s), t=md.t, ring=md.ring) == md
        assert md.s[1] == tuple(md.s)[1] and len(md.s) == md.rank

