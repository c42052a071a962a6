"""The one-table `FusionRing` against the dict-of-keys routes it replaced
(kept in tests/helpers.py): construction, validation, products, sums,
group rings, block decomposition and corner rings must agree exactly,
report for report and message for message."""

import json
import random
import sys
from itertools import product

import numpy as np
import pytest

from mtcbound import corpus, fusion, modular, pointed
from mtcbound.cli import main
from mtcbound.errors import InputError
from mtcbound.fusion import (
    FusionRing,
    _associativity,
    direct_sum,
    group_ring,
    ring_product,
    validate,
)
from mtcbound.modular import ModularData, box_tensor, double, validate_modular, verlinde, verlinde_table
from mtcbound.multifusion import block_partition, corner_ring
from mtcbound.obstruction import verdict
from mtcbound.pointed import abelian_double, matches_modular_data, metric_modular_data
from tests.helpers import (
    DictFusionRing,
    budget_label_blocks,
    dict_associativity,
    dict_block_partition,
    dict_corner_ring,
    dict_direct_sum,
    dict_group_ring,
    dict_ring_product,
    dict_validate,
    exact_associativity,
    random_metric_group,
)


def checks(report) -> list:
    return [(c.name, c.ok, c.where, c.detail) for c in report.checks]


def outcome(f, *args):
    """("ok", result), or the type and message of the exception raised."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_ring(new, old, label=None):
    assert isinstance(new, FusionRing), label
    assert (new.labels, new.unit, new.dual) == (old.labels, old.unit, old.dual), label
    assert dict(new.fusion) == old.fusion, label
    assert new.to_json_dict() == old.to_json_dict(), label


def assert_same_decomposition(ring, old, label=None):
    new_dec, old_dec = outcome(block_partition, ring), outcome(dict_block_partition, old)
    if new_dec[0] != "ok" or old_dec[0] != "ok":
        assert new_dec == old_dec, label
        return
    new_dec, old_dec = new_dec[1], old_dec[1]
    assert new_dec.block_of == old_dec.block_of, label
    assert new_dec.components == old_dec.components, label
    for i in range(len(ring.unit)):
        new_corner = outcome(corner_ring, new_dec, i)
        old_corner = outcome(dict_corner_ring, old_dec, i)
        if old_corner[0] == "ok":
            assert_same_ring(new_corner[1], old_corner[1], label)
        else:
            # a dual leaving the block was a KeyError of the dict route
            assert old_corner[0] is KeyError and new_corner[0] is InputError, label


def assert_same_routes(ring, label):
    """Construction from a mapping and from JSON, validation and the
    block decomposition, against the dict routes."""
    old = DictFusionRing.of(ring)
    assert_same_ring(FusionRing(ring.labels, ring.unit, ring.dual, old.fusion), old, label)
    assert_same_ring(
        FusionRing.from_json_dict(ring.to_json_dict()),
        DictFusionRing.from_json_dict(old.to_json_dict()),
        label,
    )
    assert checks(validate(ring)) == checks(dict_validate(old)), label
    assert_same_decomposition(ring, old, label)


def fixture_rings() -> list:
    rings = []
    for name in corpus.fixture_names():
        spec = corpus.build(name)
        for ring in (spec.ring, spec.modular.ring if spec.modular else None):
            if ring is not None:
                rings.append((name, ring))
    return rings


def base_double_rings() -> list:
    return [
        (f"double {name}", double(corpus.build(name).modular).ring)
        for name in corpus.BASE_MODULAR_FIXTURES
    ]


GROUP_ORDERS = (
    (), (1,), (2,), (3,), (5,), (2, 2), (4,), (2, 3), (3, 3), (2, 2, 2), (4, 4), (3, 9)
)


class TestAgainstDictRoutes:
    def test_fixture_rings_and_base_doubles(self):
        rings = fixture_rings() + base_double_rings()
        assert len(rings) >= 20
        for label, ring in rings:
            assert_same_routes(ring, label)

    def test_products_and_direct_sums(self):
        small = [ring for _, ring in fixture_rings() if ring.rank <= 4]
        for a in small[:6]:
            for b in small[:6]:
                new, old = ring_product(a, b), dict_ring_product(
                    DictFusionRing.of(a), DictFusionRing.of(b)
                )
                assert_same_ring(new, old)
                assert checks(validate(new)) == checks(dict_validate(old))
                new = direct_sum(a, b, ("p", "q"))
                old = dict_direct_sum(DictFusionRing.of(a), DictFusionRing.of(b), ("p", "q"))
                assert_same_ring(new, old)
                assert_same_decomposition(new, old)

    def test_group_rings_up_to_the_4_4_double(self):
        for orders in GROUP_ORDERS + ((2, 2, 2, 2), (3, 3, 3), (3, 3, 3, 3), (4, 4, 4, 4)):
            ring = group_ring(orders)
            assert_same_ring(ring, dict_group_ring(orders), orders)
            if ring.rank <= 32:
                assert_same_routes(ring, orders)
        for orders in ((3, 3), (2, 2, 2), (4, 4)):
            md = metric_modular_data(abelian_double(orders))
            assert_same_ring(md.ring, dict_group_ring(orders + orders), orders)

    @pytest.mark.parametrize("orders", [(), (1,), (2,) * 6, (10, 12), (3, 11, 2)])
    def test_group_ring_labels(self, orders):
        # the digit-string join against one label built per element
        elements = list(product(*(range(n) for n in orders)))
        expected = tuple(",".join(str(c) for c in e) if e else "0" for e in elements)
        assert group_ring(orders).labels == expected

    def test_seeded_metric_groups(self):
        rng = random.Random(19)
        for _ in range(200):
            mg = random_metric_group(rng, max_size=36)
            md = metric_modular_data(mg)
            old = dict_group_ring(mg.orders)
            assert_same_ring(md.ring, old, mg.orders)
            assert md.ring == group_ring(mg.orders)
            assert checks(validate(md.ring)) == checks(dict_validate(old)), mg.orders
            assert matches_modular_data(mg, md)


def mutant(rng: random.Random, old: DictFusionRing) -> tuple:
    """(dual, fusion) with one seeded defect: a dropped key, N + 1,
    N - 1, a negative N, a moved k (possibly out of range or onto a
    present key) or a changed dual."""
    table = dict(sorted(old.fusion.items()))
    dual = list(old.dual)
    key = rng.choice(sorted(table))
    kind = rng.choice(("drop", "plus", "minus", "negative", "move", "dual"))
    if kind == "drop":
        del table[key]
    elif kind == "plus":
        table[key] += 1
    elif kind == "minus":
        table[key] -= 1
    elif kind == "negative":
        table[key] = -1
    elif kind == "move":
        i, j, _ = key
        table[(i, j, rng.randrange(old.rank + 1))] = table.pop(key)
    else:
        a, b = rng.randrange(old.rank), rng.randrange(old.rank)
        if rng.random() < 0.8:
            dual[a], dual[b] = dual[b], dual[a]
        else:
            dual[a] = dual[b]
    return tuple(dual), dict(sorted(table.items()))


class TestMutants:
    def test_seeded_mutants(self, monkeypatch):
        pool = [
            DictFusionRing.of(ring)
            for _, ring in fixture_rings() + base_double_rings()
            if ring.rank <= 16
        ]
        pool += [dict_group_ring(orders) for orders in GROUP_ORDERS]
        rng = random.Random(5)
        built = 0
        for count in range(600):
            old = rng.choice(pool)
            dual, table = mutant(rng, old)
            args = (old.labels, old.unit, dual, table)
            new, ref = outcome(FusionRing, *args), outcome(DictFusionRing, *args)
            rows = [[i, j, k, v] for (i, j, k), v in table.items()]
            doc = {
                "labels": list(old.labels),
                "unit": list(old.unit),
                "dual": list(dual),
                "fusion": rows,
            }
            from_json = outcome(FusionRing.from_json_dict, doc)
            if new[0] != "ok" or ref[0] != "ok":
                assert new == ref == from_json, count
                continue
            built += 1
            ring, old = new[1], ref[1]
            assert_same_ring(ring, old, count)
            assert from_json[1] == ring, count
            assert checks(validate(ring)) == checks(dict_validate(old)), count
            assert_same_decomposition(ring, old, count)
            # one block for the whole ring and one label per block
            whole = _associativity(ring)
            with monkeypatch.context() as m:
                m.setattr(fusion, "_BLOCK_BYTES", 8)
                assert _associativity(ring) == whole, count
        assert built >= 300

    def test_verlinde_mismatch_names_the_first_differing_key(self):
        rng = random.Random(8)
        data = [
            corpus.build(name).modular
            for name in corpus.fixture_names()
            if corpus.build(name).modular is not None
        ]
        data = [md for md in data if md.ring is not None and md.rank <= 16]
        tested = 0
        for count in range(150):
            md = rng.choice(data)
            old = DictFusionRing.of(md.ring)
            _, table = mutant(rng, old)
            ring = outcome(FusionRing, old.labels, old.unit, old.dual, table)
            if ring[0] != "ok":
                continue
            tested += 1
            tampered = ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=ring[1])
            report = validate_modular(tampered)
            check = next(c for c in report.checks if c.name == "verlinde_matches_ring")
            want = verlinde(md)
            have = ring[1].fusion
            differ = [k for k in set(want) | set(have) if want.get(k, 0) != have.get(k, 0)]
            assert check.ok == (not differ), count
            assert check.where == (min(differ) if differ else None), count
        assert tested >= 100


# mapping inputs the adapter must treat exactly as the dict ring did
MAPPINGS = (
    {(0, 0, 0): True, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
    {(True, 0, 0): 1, (0, 1, 1): 1},
    {(0, 0, 0): 1, (np.int64(0), 1, 1): 1},
    {(0, 0, 0): np.int64(1)},
    {(0, 0, 0): 1.0},
    {(0.0, 0, 0): 1},
    {(0, 0, 0): 1, (0, 1, 1): -1},
    {(0, 0, 0): 1, (0, 0, 2): 1},
    {(0, 0, 0): 1, (0, 0, -1): 1},
    {(0, 0): 1},
    {(0, 0, 0): 1, (1, 1): 1},
    {(0, 2, 0): 1, (0, 0, 0): -1},
    {(0, 0, 0): -1, (0, 2, 0): 1},
    {(0, 0, 0): 0, (1, 1, 1): 0},
    {(0, 0, 0): 2**70, (1, 1, 0): 3},
    {},
)


class TestMappingAdapter:
    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_names_the_same_first_bad_key(self, mapping):
        args = (("1", "x"), (0,), (0, 1), mapping)
        new, ref = outcome(FusionRing, *args), outcome(DictFusionRing, *args)
        if new[0] != "ok" or ref[0] != "ok":
            assert new == ref
        else:
            assert dict(new[1].fusion) == ref[1].fusion

    @pytest.mark.parametrize(
        "labels, rows",
        [
            (["1", "x"], [[0, 0, 9, 1], [0, 1, 1, 1], [0, 1, 1, 1]]),
            (["1", "1"], [[0, 0, 0, 1], [0, 0, 0, 2]]),
            (["1", "x"], [[0, 0, 0, 1], [0, 0, 0, 2], [0, 1]]),
            (["1", "x"], [[0, 1], [0, 0, 0, 1], [0, 0, 0, 2]]),
            (["1", "x"], [[0, 0, 0, 1], [0, 0, 0, True]]),
            (["1", "1"], [[0, 0, 9, 1]]),
            (["1", "x"], [[0, 0, 0, -1], [1, 1, 9, 1]]),
            (["1", "x"], [[1, 1, 0, 2**70], [0, 0, 0, 1], [1, 1, 0, 2**70]]),
            (["1", "x"], [[2**70, 0, 0, 1], [2**70, 0, 0, 1]]),
            (["1", "x"], [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [0, 0, 0, 1]]),
            ([], []),
        ],
    )
    def test_json_rows_name_the_same_first_error(self, labels, rows):
        doc = {"labels": labels, "unit": [0], "dual": list(range(len(labels))), "fusion": rows}
        new = outcome(FusionRing.from_json_dict, doc)
        ref = outcome(DictFusionRing.from_json_dict, doc)
        if new[0] != "ok" or ref[0] != "ok":
            assert new == ref
        else:
            assert_same_ring(new[1], ref[1])

    def test_header_errors_come_first(self):
        args = (("1", "1"), (0,), (0, 1), {(0, 0, 5): 1})
        assert outcome(FusionRing, *args) == outcome(DictFusionRing, *args)
        args = (("1", "x"), (0,), (0, 0), {(0, 0, 5): 1})
        assert outcome(FusionRing, *args) == outcome(DictFusionRing, *args)

    def test_fusion_view_is_the_old_dict_and_read_only(self):
        for label, ring in fixture_rings():
            old = DictFusionRing(ring.labels, ring.unit, ring.dual, dict(ring.fusion))
            assert ring.fusion == old.fusion, label
            assert list(ring.fusion) == sorted(old.fusion), label
        ring = group_ring((2, 2))
        with pytest.raises(TypeError):
            ring.fusion[(0, 0, 0)] = 2
        with pytest.raises(ValueError):
            ring.table[0, 3] = 2
        with pytest.raises(AttributeError):
            ring.table = None
        assert ring.n(0, 0, 0) == 1 and ring.n(1, 1, 1) == 0 and ring.n(0, 0, 9) == 0

    def test_pointed_path_never_builds_the_view(self, monkeypatch):
        def forbidden(ring):
            raise AssertionError("fusion view built")

        monkeypatch.setattr(FusionRing, "fusion", property(forbidden))
        for orders in ((2, 2), (3, 3)):
            mg = abelian_double(orders)
            md = metric_modular_data(mg)
            assert matches_modular_data(mg, md)
            assert verdict(md, pointed_hint=mg).verdict == "ExactBoundaries"
            assert verdict(md).candidates
            assert validate_modular(md).ok

    def test_zero_rows_are_dropped_and_rows_sorted(self):
        ring = FusionRing.from_table(
            ("1", "x"), (0,), (0, 1), [[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 1]]
        )
        assert ring.table.tolist() == [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 1]]
        with pytest.raises(InputError, match=r"duplicate fusion triple \(0, 1, 1\)"):
            FusionRing.from_table(
                ("1", "x"), (0,), (0, 1), [[0, 1, 1, 1], [0, 0, 0, 1], [0, 1, 1, 2]]
            )
        # Python integers beyond int64 stay exact, floats are refused
        big = FusionRing.from_table(("1", "x"), (0,), (0, 1), [[0, 0, 0, 1], [1, 1, 0, 2**63]])
        assert big.table.dtype == object and big.n(1, 1, 0) == 2**63
        with pytest.raises(InputError, match="must be integers"):
            FusionRing.from_table(("1", "x"), (0,), (0, 1), [[0, 0, 0, 1.0]])

    @pytest.mark.parametrize("value", [2**63 - 1, 2**63, -(2**63), -(2**63) - 1])
    def test_json_cells_at_the_int64_edges(self, value):
        # int64 holds the first and third value, not the others: each
        # JSON cell is named the same either way, and a repeated key
        # before it still comes first
        rows = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
        for column, repeat in product(range(4), (False, True)):
            fusion = [list(row) for row in rows] + [[0, 0, 0, 1]] * repeat
            fusion[1][column] = value
            obj = {"labels": ["1", "x"], "unit": [0], "dual": [0, 1], "fusion": fusion}
            if repeat:
                message = "duplicate fusion triple (0, 0, 0)"
            elif column < 3:
                message = f"fusion index out of range: {tuple(fusion[1][:3])}"
            elif value < 0:
                message = "fusion multiplicity must be a non-negative integer: (0, 1, 1)"
            else:
                ring = FusionRing.from_json_dict(obj)
                assert ring.n(0, 1, 1) == value
                assert ring.table.dtype == (np.int64 if value < 2**63 else object)
                continue
            with pytest.raises(InputError) as raised:
                FusionRing.from_json_dict(obj)
            assert str(raised.value) == message, (column, repeat)

    def test_a_view_is_copied_and_an_owning_array_taken_over(self):
        rows = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]
        buffer = np.array(rows, dtype=np.int64).ravel()
        ring = FusionRing.from_table(("1", "x"), (0,), (0, 1), buffer.reshape(4, 4))
        buffer[3] = 5
        assert ring.n(0, 0, 0) == 1 and buffer.flags.writeable
        owned = np.array(rows, dtype=np.int64)
        ring = FusionRing.from_table(("1", "x"), (0,), (0, 1), owned)
        assert ring.table is owned and not owned.flags.writeable


class TestExactness:
    def test_associativity_does_not_wrap(self):
        fusion_map = {(0, 0, 1): 2**32, (1, 0, 0): 2**32}
        ring = FusionRing(labels=("a", "b"), unit=(0,), dual=(0, 1), fusion=fusion_map)
        # (a a) a = 2^64 a but a (a a) = 2^32 a b = 0: int64 wraps 2^64 to 0
        old = DictFusionRing(("a", "b"), (0,), (0, 1), fusion_map)
        assert dict_associativity(old) == (True, None)
        assert exact_associativity(ring) == (False, (0, 0, 0, 0))
        assert _associativity(ring) == (False, (0, 0, 0, 0))
        assert not next(c for c in validate(ring).checks if c.name == "associativity").ok

    def test_tampered_summand_of_a_rank_130_sum(self, monkeypatch):
        """A non-associative rank-2 ring beside the rank-128 group ring,
        in both orders: the first failure is the small ring's own,
        shifted by its offset, also with one label per block."""
        small = FusionRing(
            ("1", "t"), (0,), (0, 1), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 2, (1, 1, 0): 1}
        )
        ok, where = exact_associativity(small)
        assert not ok
        big = group_ring((2,) * 7)
        for ring, shift in ((direct_sum(small, big), 0), (direct_sum(big, small), 128)):
            assert ring.rank == 130
            expected = (False, tuple(x + shift for x in where))
            assert _associativity(ring) == expected
            with monkeypatch.context() as m:
                m.setattr(fusion, "_BLOCK_BYTES", 8)
                assert _associativity(ring) == expected

    def test_no_key_wraps_at_rank_60000(self):
        """Orthogonal idempotents x_i x_i = x_i, every label a unit
        summand: r^4 is above 2^63, so a block may not hold every label.
        With x_a x_a = x_a + x_b added for a = r - 1 and b = r - 2, the
        first failure is (b, a, a, b): x_b (x_a x_a) = x_b, while
        (x_b x_a) x_a = 0."""
        r = 60_000
        index = np.arange(r)
        table = np.stack((index, index, index, np.ones(r, dtype=np.int64)), axis=1)
        labels, every = tuple(map(str, range(r))), tuple(range(r))
        ring = FusionRing.from_table(labels, every, every, table)
        assert _associativity(ring) == (True, None)
        a, b = r - 1, r - 2
        tampered = FusionRing.from_table(
            labels, every, every, np.concatenate((table, [[a, a, b, 1]]))
        )
        assert _associativity(tampered) == (False, (b, a, a, b))

    def test_big_multiplicities_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(60):
            r = rng.randint(2, 3)
            table = {
                (i, j, k): rng.choice((0, 1, 2**20, 2**31, 2**33, 2**40))
                for i in range(r)
                for j in range(r)
                for k in range(r)
                if rng.random() < 0.4
            }
            ring = FusionRing(tuple("abc"[:r]), (0,), tuple(range(r)), table)
            assert _associativity(ring) == exact_associativity(ring), table

    def test_huge_multiplicity_fails_without_traceback(self, tmp_path, capsys):
        corpus.write_all(tmp_path)
        obj = json.loads((tmp_path / "fib_plus_z2.json").read_text())
        obj["fusion_ring"]["fusion"][-1][-1] = 2**70
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        ring = FusionRing.from_json_dict(obj["fusion_ring"])
        assert ring.table.dtype == object and ring.to_json_dict() == obj["fusion_ring"]
        for command in ("validate", "decompose"):
            for fmt in ("text", "json"):
                assert main([command, str(path), "--format", fmt]) == 1
                captured = capsys.readouterr()
                assert captured.err == ""
                assert "associativity" in captured.out


class TestBlockBudget:
    """One budget, `fusion._BLOCK_BYTES`, splits the blocked passes.
    Each divides it by its item size, 8 bytes or 2 for the uint16 labels
    of Light's test and the int16 positions of the enumeration, so every
    pass keeps the blocks of its own item budget: 2^18 entries and 2^20
    two-byte entries at the default of 2^21 bytes."""

    # the items each uniform pass makes per unit, and its units, read
    # off the caller's locals
    UNIFORM = {
        "verlinde_table": lambda f: (f["r"] * (2 * f["phi"] - 1), len(f["first"])),
        "_pointed_certificate": lambda f: (f["r"] ** 2, len(f["gens"])),
        "fp_dimensions": lambda f: (f["r"] ** 2, f["r"]),
        "isotropic_subgroups": lambda f: (f["size"] * len(f["sums"]), len(f["subgroups"])),
    }
    ITEMSIZE = {
        "_associativity": 8,
        "_ring_equations": 8,
        "verlinde_table": 8,
        "_pointed_certificate": 2,
        "fp_dimensions": 8,
        "isotropic_subgroups": 2,
    }

    @pytest.mark.parametrize("shift", [0, 8, 18])
    def test_every_pass_keeps_the_blocks_of_its_item_budget(self, monkeypatch, shift):
        budgets = {8: 2**18 >> shift, 2: 2**20 >> shift}  # items per block
        toric, ising = (corpus.build(name).modular for name in ("toric_code", "ising"))
        if shift == 0:
            md, mg = double(box_tensor(toric, ising)), abelian_double((2,) * 4)
        else:
            md, mg = box_tensor(toric, ising), abelian_double((2, 2))
        split, step = fusion._label_blocks, fusion._block_step
        seen = []

        def label_spy(made, itemsize, span=None):
            caller = sys._getframe(1).f_code.co_name
            blocks = list(split(made, itemsize, span))
            assert itemsize == self.ITEMSIZE[caller]
            assert blocks == budget_label_blocks(made, budgets[itemsize], span), caller
            seen.append((caller, len(blocks)))
            return iter(blocks)

        def step_spy(items, itemsize):
            frame = sys._getframe(1)
            caller = frame.f_code.co_name
            cost, units = self.UNIFORM[caller](frame.f_locals)
            got = step(items, itemsize)
            assert (items, itemsize) == (cost, self.ITEMSIZE[caller])
            assert got == max(1, budgets[itemsize] // cost), caller
            seen.append((caller, len(range(0, units, got))))
            return got

        monkeypatch.setattr(fusion, "_BLOCK_BYTES", 2**21 >> shift)
        for module in (fusion, modular):
            monkeypatch.setattr(module, "_label_blocks", label_spy)
        for module in (fusion, modular, pointed):
            monkeypatch.setattr(module, "_block_step", step_spy)
        assert fusion.validate(md.ring).ok
        assert len(fusion.fp_dimensions(md.ring)) == md.rank
        assert validate_modular(md).ok  # the ring route
        assert len(verlinde_table(md))
        assert verdict(metric_modular_data(mg)).verdict == "CandidatesFound"
        blocks = {}
        for caller, count in seen:
            blocks[caller] = blocks.get(caller, 0) + count
        assert set(blocks) == set(self.ITEMSIZE)
        if shift == 18:  # one unit per block, or four int16 entries
            assert min(blocks.values()) > 1, blocks
