"""The one-table `FusionRing` against the dict-of-keys routes it replaced
(kept in tests/helpers.py): construction, validation, products, sums,
group rings, block decomposition and corner rings must agree exactly,
report for report and message for message."""

import json
import random

import numpy as np
import pytest

from mtcbound import corpus, fusion
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
from mtcbound.modular import ModularData, double, validate_modular, verlinde
from mtcbound.multifusion import block_partition, corner_ring
from mtcbound.obstruction import verdict
from mtcbound.pointed import abelian_double, matches_modular_data, metric_modular_data
from tests.helpers import (
    DictFusionRing,
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
            # the blocked and the pair-by-pair associativity routes
            dense = _associativity(ring)
            with monkeypatch.context() as m:
                m.setattr(fusion, "_BLOCK_ENTRIES", 1)
                assert _associativity(ring) == dense, count
                m.setattr(fusion, "DENSE_RANK_CAP", 0)
                assert _associativity(ring) == dense, count
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
