import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mtcbound import corpus, modular
from mtcbound.cyclotomic import Cyclotomic, cyc_sum, rational, sqrt_int, zeta
from mtcbound.errors import InputError, NonIntegralVerlinde, NonModular
from mtcbound.modular import (
    ModularData,
    PackedMatrix,
    _balancing_sides,
    box_tensor,
    central_charge,
    central_charge_float_oracle,
    central_charge_via_square,
    double,
    gauss_sums,
    reverse,
    ring_from_verlinde,
    validate_modular,
    verlinde,
    verlinde_table,
)

from mtcbound.pointed import metric_modular_data
from tests.helpers import (
    object_matmul,
    object_scale_columns,
    object_verlinde,
    per_entry_pack,
    per_label_central_charge,
    per_label_gauss_sums,
    per_label_scalar_checks,
    random_metric_group,
)

ONE = rational(1)


def ising_md():
    return corpus.ising().modular


def fib_md():
    return corpus.fibonacci().modular


def toric_md():
    return corpus.toric_code().modular


def oracle_inputs(max_metric_size: int = 16) -> list:
    """(label, modular data): every fixture with modular data, the doubles
    of the six base modular fixtures and seeded random metric groups."""
    out = []
    for name in corpus.fixture_names():
        md = corpus.build(name).modular
        if md is not None:
            out.append((name, md))
    for name in corpus.BASE_MODULAR_FIXTURES:
        out.append((f"double({name})", double(corpus.build(name).modular)))
    rng = random.Random(11)
    for _ in range(6):
        mg = random_metric_group(rng, max_size=max_metric_size)
        out.append((f"metric {mg.orders}", metric_modular_data(mg)))
    return out


def matrix_workload_products() -> list:
    """(label, datum): the rank-36 doubles and rank-12 products that the
    benchmark's matrix workload builds, without its relabelling."""
    ising, semion, fib = (corpus.build(n).modular for n in ("ising", "semion", "fibonacci"))
    out = []
    for label, base in (
        ("ising x semion", box_tensor(ising, semion)),
        ("ising x reverse(semion)", box_tensor(ising, reverse(semion))),
        ("ising x fibonacci", box_tensor(ising, fib)),
    ):
        out.append((f"double({label})", double(base)))
    for name in ("toric_code", "double_semion"):
        for chiral_label, chiral in (("ising", ising), ("reverse(ising)", reverse(ising))):
            md = box_tensor(corpus.build(name).modular, chiral)
            out.append((f"{name} x {chiral_label}", md))
    return out


def rows_of(packed: PackedMatrix) -> tuple:
    r, c = packed.nums.shape[:2]
    return tuple(tuple(packed.entry(i, j) for j in range(c)) for i in range(r))


def permutation_of(matrix) -> tuple | None:
    perm = []
    for row in matrix:
        hits = [j for j, v in enumerate(row) if not v.is_zero()]
        if len(hits) != 1 or row[hits[0]] != ONE:
            return None
        perm.append(hits[0])
    return tuple(perm) if sorted(perm) == list(range(len(perm))) else None


class TestStructure:
    def test_rejects_non_square_s(self):
        with pytest.raises(InputError):
            ModularData(s=((ONE, ONE),), t=(ONE,))

    def test_rejects_wrong_t_length(self):
        with pytest.raises(InputError):
            ModularData(s=((ONE,),), t=(ONE, ONE))

    def test_rejects_unit_out_of_range(self):
        with pytest.raises(InputError):
            ModularData(s=((ONE,),), t=(ONE,), unit_index=3)

    def test_rejects_non_cyclotomic_entries(self):
        with pytest.raises(InputError):
            ModularData(s=((1,),), t=(ONE,))
        md = fib_md()
        for s, t, message in (
            (((md.s[0][0], 1), md.s[1]), md.t, "S entries must be cyclotomic scalars"),
            ((md.s[0], (md.s[1][0], None)), md.t, "S entries must be cyclotomic scalars"),
            (md.s, (md.t[0], Fraction(1)), "T must be a length-r vector of cyclotomic scalars"),
        ):
            with pytest.raises(InputError) as exc:
                ModularData(s=s, t=t)
            assert str(exc.value) == message

    def test_conductor_is_the_lcm_of_the_entries(self):
        for name in corpus.fixture_names():
            md = corpus.build(name).effective_modular()
            if md is not None:
                want = 1
                for e in (*(e for row in md.s for e in row), *md.t):
                    want = want * e.conductor // math.gcd(want, e.conductor)
                assert md.conductor() == want, name

    def test_ring_rank_must_match(self):
        ring = corpus.fibonacci().modular.ring
        with pytest.raises(InputError):
            ModularData(s=((ONE,),), t=(ONE,), ring=ring)

    def test_conductor_field_checked_on_parse(self):
        obj = ising_md().to_json_dict()
        obj["conductor"] = 5
        with pytest.raises(InputError):
            ModularData.from_json_dict(obj)

    def test_json_round_trip(self):
        md = ising_md()
        again = ModularData.from_json_dict(json.loads(json.dumps(md.to_json_dict())))
        assert again.s == md.s and again.t == md.t
        assert again.ring.fusion == md.ring.fusion


class TestJsonByDistinctValue:
    """from_json_dict parses, and to_json_dict writes, each distinct
    scalar once; errors and output bytes are those of a per-entry pass."""

    @staticmethod
    def toric_json() -> dict:
        return json.loads(json.dumps(toric_md().to_json_dict()))

    @staticmethod
    def parse_error(obj) -> str:
        with pytest.raises(InputError) as exc:
            ModularData.from_json_dict(obj)
        return str(exc.value)

    def test_each_distinct_scalar_is_parsed_and_written_once(self, monkeypatch):
        obj = self.toric_json()
        entries = [e for row in obj["S"] for e in row] + obj["T"]
        distinct = {json.dumps(e, sort_keys=True) for e in entries}
        assert (len(entries), len(distinct)) == (20, 4)  # S is +-1/2, T is +-1
        parsed, written = [], []
        parse, write = Cyclotomic.from_json_dict, Cyclotomic.to_json_dict
        monkeypatch.setattr(Cyclotomic, "from_json_dict", lambda o: parsed.append(o) or parse(o))
        monkeypatch.setattr(Cyclotomic, "to_json_dict", lambda e: written.append(e) or write(e))
        md = ModularData.from_json_dict(obj)
        assert len(parsed) == 4
        assert json.loads(json.dumps(md.to_json_dict())) == obj
        assert len(written) == 4

    def test_repeated_malformed_scalar_is_named_at_its_first_entry(self):
        obj = self.toric_json()
        first = {"N": 1, "c": [["1", "x"]]}
        second = {"N": 1, "c": [["y", "2"]]}
        # row-major: S[1][2] comes before S[2][1], which comes before S[3][0]
        obj["S"][1][2] = obj["S"][3][0] = first
        obj["S"][2][1] = second
        assert "['1', 'x']" in self.parse_error(obj)
        obj["S"][0][3] = second
        assert "['y', '2']" in self.parse_error(obj)

    def test_malformed_twins_of_parsed_scalars_are_still_refused(self):
        # a boolean conductor or coefficient compares equal to an integer,
        # so it must not be taken for the well-formed scalar parsed before it
        obj = self.toric_json()
        half = obj["S"][0][0]
        assert half == {"N": 1, "c": [["1", "2"]]}
        obj["S"][0][1] = {"N": True, "c": [["1", "2"]]}
        assert "bad conductor True" in self.parse_error(obj)
        obj["S"][0][1] = {"N": 1, "c": [[True, "2"]]}
        assert "bad coefficient entry [True, '2']" in self.parse_error(obj)
        obj["S"][0][1] = {"N": 1, "c": [[1, 2]]}  # integers are a valid spelling
        assert ModularData.from_json_dict(obj).s[0][1] == rational(Fraction(1, 2))


class TestDimensions:
    def test_ising_dims_exact(self):
        md = ising_md()
        assert md.dims() == (ONE, ONE, sqrt_int(2))
        assert md.total_dim() == rational(2)

    def test_fibonacci_total_dim_squares_to_2_plus_phi(self):
        md = fib_md()
        d = md.total_dim()
        phi = ONE + zeta(5) + zeta(5) ** 4
        assert d * d == rational(2) + phi

    def test_theta_normalized(self):
        md = ising_md()
        assert md.theta()[0] == ONE
        assert md.theta()[2] == zeta(16)


class TestVerlinde:
    def test_matches_declared_fusion(self):
        for name in ("ising", "fibonacci", "toric_code", "double_semion"):
            md = corpus.build(name).modular
            assert verlinde(md) == md.ring.fusion, name

    @staticmethod
    def block_settings(md) -> dict:
        """_BLOCK_ENTRIES values: one pair i <= j per block, three blocks
        for md, and the default."""
        r, phi = md.rank, md.packed_s().nums.shape[2]
        pairs = r * (r + 1) // 2
        return {
            "one pair": 1,
            "three blocks": r * (2 * phi - 1) * -(-pairs // 3),
            "default": modular._BLOCK_ENTRIES,
        }

    def test_fast_and_object_routes_agree(self, monkeypatch):
        # the packed route against the entry-by-entry object sum, in
        # (i, j, k) order, whichever blocks the pairs i <= j run in
        for name, md in oracle_inputs():
            expected = sorted([*key, n] for key, n in object_verlinde(md).items())
            for setting, entries in self.block_settings(md).items():
                monkeypatch.setattr(modular, "_BLOCK_ENTRIES", entries)
                fresh = ModularData(s=md.s, t=md.t, unit_index=md.unit_index)
                assert verlinde_table(fresh).tolist() == expected, (name, setting)

    def test_object_dtype_route_agrees(self, monkeypatch):
        # no float64 products and no int64 storage: every product of the
        # packed layer runs on Python integers
        monkeypatch.setattr(modular, "_FLOAT_EXACT", 0)
        monkeypatch.setattr(modular, "_INT64_LIMIT", 0)
        for name in ("fibonacci", "d_z3", "double_ising", "double_fibonacci"):
            md = corpus.build(name).modular
            fresh = ModularData(s=md.s, t=md.t, unit_index=md.unit_index)
            assert fresh.packed_s_squared().nums.dtype == object
            assert verlinde(fresh) == object_verlinde(md) == md.ring.fusion, name
            assert fresh.dual_permutation() == md.ring.dual, name
            assert validate_modular(fresh).ok, name

    def test_non_integral_fusion_is_rejected(self):
        md = ising_md()
        rows = [list(r) for r in md.s]
        rows[2][2] = ONE * Fraction(1, 2)  # breaks unitarity of S
        bad = ModularData(s=tuple(tuple(r) for r in rows), t=md.t)
        with pytest.raises((NonIntegralVerlinde, NonModular)):
            verlinde(bad)
        # conjugating S by diag(1, -1, 1, 1) keeps it unitary but turns
        # N_(e,m)^f = 1 into -1
        signs = (1, -1, 1, 1)
        s = toric_md().s
        flipped = tuple(
            tuple(s[i][j] * (signs[i] * signs[j]) for j in range(4)) for i in range(4)
        )
        with pytest.raises(NonIntegralVerlinde):
            verlinde(ModularData(s=flipped, t=toric_md().t))

    def test_error_names_the_oracle_coefficient_in_every_block_setting(self, monkeypatch):
        # D S D with D = diag(+-1), unit sign +1, stays unitary and
        # multiplies N_ij^k by D_i D_j D_k, so some coefficients turn -1
        rng = random.Random(23)
        raised = 0
        inputs = [
            (name, corpus.build(name).modular)
            for name in ("toric_code", "d_z3", "double_of_double_semion")
        ]
        inputs.append(("toric_code x ising", box_tensor(toric_md(), ising_md())))
        for name, md in inputs:
            r, u = md.rank, md.unit_index
            for _ in range(4):
                signs = [rng.choice((1, -1)) for _ in range(r)]
                signs[u] = 1
                s = tuple(
                    tuple(md.s[i][j] * (signs[i] * signs[j]) for j in range(r))
                    for i in range(r)
                )
                flipped = ModularData(s=s, t=md.t, unit_index=u)
                try:
                    expected = object_verlinde(flipped)
                except NonIntegralVerlinde as exc:
                    expected = str(exc)
                    raised += 1
                for setting, entries in self.block_settings(flipped).items():
                    monkeypatch.setattr(modular, "_BLOCK_ENTRIES", entries)
                    fresh = ModularData(s=s, t=md.t, unit_index=u)
                    try:
                        got = verlinde(fresh)
                    except NonIntegralVerlinde as exc:
                        got = str(exc)
                    assert got == expected, (name, signs, setting)
        assert raised >= 8

    def test_ring_from_verlinde_gets_dual_from_s_squared(self):
        ring = ring_from_verlinde(fib_md(), labels=("1", "tau"))
        assert ring.dual == (0, 1)
        assert ring.fusion[(1, 1, 1)] == 1


class TestPackedLayer:
    def test_s_squared_and_dual_permutation_match_the_object_product(self):
        s = ising_md().s
        bad = (s[0], s[1], (s[2][0] * 2, s[2][1], s[2][2]))  # S^2 is no permutation
        # x = 5/4 + 3/4 z3 has x^2 = 1 + 21/16 z3: constant term 1, not 1
        x = rational(Fraction(5, 4)) + rational(Fraction(3, 4)) * zeta(3)
        inputs = oracle_inputs() + [
            ("non-unitary", ModularData(s=bad, t=ising_md().t)),
            ("x^2 = 1 + 21/16 z3", ModularData(s=((x,),), t=(ONE,))),
        ]
        for name, md in inputs:
            s2 = object_matmul(md.s, md.s)
            assert rows_of(md.packed_s_squared()) == s2, name
            assert md.dual_permutation() == permutation_of(s2), name

    def test_balancing_sides_match_the_object_products(self):
        for name, md in oracle_inputs():
            theta = md.theta()
            factor = cyc_sum(d * d * th for d, th in zip(md.dims(), theta)) * md.s_unit
            lhs, rhs = _balancing_sides(md, theta, factor)
            st = object_scale_columns(md.s, theta)
            assert rows_of(lhs) == object_matmul(object_matmul(st, st), st), name
            s2 = object_matmul(md.s, md.s)
            assert rows_of(rhs) == tuple(tuple(factor * v for v in row) for row in s2), name

    def test_coefficients_beyond_int64_take_the_object_route(self):
        rng = random.Random(3)
        big = 2**70

        def entry():
            return zeta(16, rng.randrange(16)) * rng.randrange(-big, big) + rational(
                Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            )

        a = tuple(tuple(entry() for _ in range(3)) for _ in range(4))
        b = tuple(tuple(entry() for _ in range(2)) for _ in range(3))
        pa, pb = PackedMatrix.pack(a), PackedMatrix.pack(b)
        assert pa.nums.dtype == object
        product = pa @ pb
        assert product.nums.dtype == object
        assert rows_of(product) == object_matmul(a, b)
        assert rows_of(pa.transpose().conj()) == tuple(
            tuple(a[i][j].conj() for i in range(4)) for j in range(3)
        )
        assert (pa.embed(48) @ pb).entries_equal(product).all()

    def test_sums_beyond_float_precision_stay_exact(self):
        # coefficient sizes from 2^22 to 2^28 in quarter-power steps put
        # single products below 2^53 and the sums over m, over powers and
        # in the reduction around and above it; float64 may only run where
        # every partial sum is exact.  Positive coefficients make the sums
        # of a product large, signed ones the sums of the reduction.
        rng = random.Random(9)
        for low in (0, -1):
            for quarter_bits in range(88, 113):
                limit = int(2 ** (quarter_bits / 4))

                def entry():
                    nums = tuple(rng.randrange(low * limit, limit) | 1 for _ in range(6))
                    return Cyclotomic(7, nums, 1)

                a = tuple(tuple(entry() for _ in range(64)) for _ in range(2))
                b = tuple(tuple(entry() for _ in range(2)) for _ in range(64))
                pa, pb = PackedMatrix.pack(a), PackedMatrix.pack(b)
                assert rows_of(pa @ pb) == object_matmul(a, b), limit
                assert rows_of(pa.times(pa)) == tuple(
                    tuple(x * x for x in row) for row in a
                ), limit

    def test_products_mix_conductors(self):
        a = ((zeta(5), sqrt_int(2)), (rational(Fraction(1, 3)), zeta(3)))
        b = ((zeta(8, 3), ONE), (zeta(5, 2), rational(-2)))
        assert rows_of(PackedMatrix.pack(a) @ PackedMatrix.pack(b)) == object_matmul(a, b)

    def test_pack_matches_the_per_entry_oracle(self):
        mixed = (
            (zeta(5), sqrt_int(2), rational(Fraction(1, 3)), zeta(5)),
            (zeta(3), ONE, zeta(8, 3) * Fraction(2, 7), zeta(5)),
            (rational(-2), zeta(3), sqrt_int(2), ONE),
        )
        inputs = [(name, md.s) for name, md in oracle_inputs()]
        inputs.append(("mixed conductors", mixed))
        inputs.append(("mixed conductors over 120", mixed, 120))
        for name, rows, *conductor in inputs:
            packed, expected = PackedMatrix.pack(rows, *conductor), per_entry_pack(rows, *conductor)
            assert (packed.conductor, packed.den) == (expected.conductor, expected.den), name
            assert packed.nums.dtype == expected.nums.dtype, name
            assert packed.nums.shape == expected.nums.shape, name
            assert (packed.nums == expected.nums).all(), name

    def test_entries_equal_beyond_float_precision(self):
        # 2^53 + 1 and 2^53 are one float64; 3 (2^62 + 1) leaves int64
        def single(value, den):
            return PackedMatrix(1, np.array([[[value]]], dtype=np.int64), den)

        near = 2**53
        assert not single(near + 1, 1).entries_equal(single(near, 1)).any()
        assert single(near + 1, 1).entries_equal(single(2 * near + 2, 2)).all()
        assert not single(near + 1, 1).entries_equal(single(2 * near + 1, 2)).any()
        big = 2**62 + 1
        assert single(big, 3).entries_equal(single(big, 3)).all()
        assert not single(big, 3).entries_equal(single(big - 1, 3)).any()
        assert not single(big, 3).entries_equal(single(big, 5)).any()


class TestCentralCharge:
    CASES = [
        ("trivial", Fraction(0)),
        ("toric_code", Fraction(0)),
        ("double_semion", Fraction(0)),
        ("semion", Fraction(1)),
        ("ising", Fraction(1, 2)),
        ("fibonacci", Fraction(14, 5)),
    ]

    @pytest.mark.parametrize("name,expected", CASES)
    def test_exact_values(self, name, expected):
        md = corpus.build(name).modular
        assert central_charge(md) == expected

    @pytest.mark.parametrize("name,expected", CASES)
    def test_square_route_agrees(self, name, expected):
        md = corpus.build(name).modular
        assert central_charge_via_square(md) == expected

    def test_square_route_on_every_fixture_and_double(self):
        # its branch between c and c + 4 is an exact equality, so it
        # must agree with the direct route everywhere
        data = [corpus.build(name).modular for name in corpus.fixture_names()]
        data = [md for md in data if md is not None]
        data += [double(corpus.build(name).modular) for name in corpus.BASE_MODULAR_FIXTURES]
        assert len(data) == 13 + 6
        for md in data:
            assert central_charge_via_square(md) == central_charge(md)

    @pytest.mark.parametrize("name,expected", CASES)
    def test_float_oracle_agrees(self, name, expected):
        md = corpus.build(name).modular
        got = central_charge_float_oracle(md)
        assert min(abs(got - float(expected)), abs(got - float(expected) - 8),
                   abs(got - float(expected) + 8)) < 1e-6

    def test_gauss_identity(self):
        for name in ("ising", "fibonacci", "d_z3"):
            md = corpus.build(name).modular
            plus, minus, total = gauss_sums(md)
            assert plus * minus == total * total


class TestScalarOracle:
    """The Gauss sums, the central charge and the label loops of
    `validate_modular`, which run once per distinct value, against the
    label-by-label routes they replaced (`tests.helpers`)."""

    @staticmethod
    def assert_checks_match_per_label(md, label):
        checks = {c.name: (c.ok, c.where, c.detail) for c in validate_modular(md).checks}
        for name, expected in per_label_scalar_checks(md).items():
            assert checks[name] == expected, (label, name)

    def assert_matches_per_label(self, md, label):
        assert gauss_sums(md) == per_label_gauss_sums(md), label
        assert central_charge(md) == per_label_central_charge(md), label
        self.assert_checks_match_per_label(md, label)

    def test_fixtures_doubles_and_seeded_groups(self):
        for label, md in oracle_inputs():
            self.assert_matches_per_label(md, label)

    def test_matrix_workload_products(self):
        products = matrix_workload_products()
        assert sorted(md.rank for _, md in products) == [12] * 4 + [36] * 3
        for label, md in products:
            self.assert_matches_per_label(md, label)

    def test_seeded_metric_groups(self):
        rng = random.Random(808)
        for _ in range(200):
            mg = random_metric_group(rng, max_size=16)
            self.assert_matches_per_label(metric_modular_data(mg), mg.orders)

    def test_failing_dim_is_named_at_its_first_label(self):
        # dims (1, 1, -1, -1): the failing value is the second distinct
        # one, first carried by label 2 and repeated at label 3
        md = toric_md()
        rows = [list(r) for r in md.s]
        for j in (2, 3):
            rows[0][j] = rows[j][0] = -rows[0][j]
        bad = ModularData(s=tuple(map(tuple, rows)), t=md.t)
        assert [d.as_rational() for d in bad.dims()] == [1, 1, -1, -1]
        check = validate_modular(bad).first_failure()
        assert (check.name, check.where) == ("dims_real_positive", (2,))
        self.assert_checks_match_per_label(bad, "dims (1, 1, -1, -1)")

    def test_failing_twist_is_named_at_its_first_label(self):
        # twists (1, 1, 2, 2): the value 2 is no root of unity, first
        # carried by label 2 and repeated at label 3
        md = toric_md()
        bad = ModularData(s=md.s, t=(ONE, ONE, rational(2), rational(2)), ring=md.ring)
        report = validate_modular(bad)
        check = next(c for c in report.checks if c.name == "theta_root_of_unity")
        assert (check.ok, check.where) == (False, (2,))
        self.assert_checks_match_per_label(bad, "twists (1, 1, 2, 2)")

    def test_gauss_sums_are_computed_once_per_datum(self, monkeypatch):
        md = double(fib_md())
        calls = []
        original = modular._distinct
        monkeypatch.setattr(
            modular, "_distinct", lambda *c: calls.append(len(c)) or original(*c)
        )
        for _ in range(2):
            gauss_sums(md)
            central_charge(md)
        assert calls == [2, 2]  # one (d, theta) histogram for each of tau+ and tau-


class TestValidationReport:
    def test_all_corpus_modular_sections_pass(self):
        for name in corpus.fixture_names():
            spec = corpus.build(name)
            if spec.modular is None:
                continue
            report = validate_modular(spec.modular)
            assert report.ok, (name, report.failed_names())

    def test_tampered_theta_names_balancing(self):
        md = toric_md()
        bad = ModularData(s=md.s, t=(ONE, ONE, ONE, ONE), ring=md.ring)
        report = validate_modular(bad)
        assert not report.ok
        assert report.first_failure().name == "balancing"

    def test_tampered_s_names_symmetry(self):
        md = ising_md()
        rows = [list(r) for r in md.s]
        rows[0][1] = -rows[0][1]
        bad = ModularData(s=tuple(tuple(r) for r in rows), t=md.t)
        report = validate_modular(bad)
        assert not report.ok
        assert report.first_failure().name == "s_symmetric"

    def test_s_symmetric_names_the_first_asymmetric_pair(self):
        md = ising_md()
        rows = [list(r) for r in md.s]
        rows[2][1] = -rows[2][1]
        rows[1][0] = -rows[1][0]
        check = validate_modular(ModularData(s=tuple(map(tuple, rows)), t=md.t)).first_failure()
        assert (check.name, check.where) == ("s_symmetric", (0, 1))

    def test_non_root_twist_is_named(self):
        md = toric_md()
        t = list(md.t)
        t[3] = rational(2)
        report = validate_modular(ModularData(s=md.s, t=tuple(t), ring=md.ring))
        assert "theta_root_of_unity" in report.failed_names()

    def test_negative_dim_is_named(self):
        md = toric_md()
        rows = [list(r) for r in md.s]
        rows[0][1] = -rows[0][1]
        rows[1][0] = -rows[1][0]
        report = validate_modular(ModularData(s=tuple(tuple(r) for r in rows), t=md.t))
        assert "dims_real_positive" in report.failed_names()

    def test_tiny_positive_dim_is_positive(self):
        # d_e = 665857/470832 - sqrt 2, about 1.6e-12 but positive: the
        # certified sign accepts it, where a float threshold would not
        md = toric_md()
        rows = [list(r) for r in md.s]
        rows[0][1] = rows[1][0] = (rational(Fraction(665857, 470832)) - sqrt_int(2)) * md.s[0][0]
        tiny = ModularData(s=tuple(tuple(r) for r in rows), t=md.t)
        assert 0 < tiny.dims()[1].approx().real < 1e-11
        report = validate_modular(tiny)
        assert "dims_real_positive" not in report.failed_names()
        assert not report.ok  # sum d_i^2 no longer equals D^2

    def test_wrong_declared_fusion_is_named(self):
        md = fib_md()
        ring = md.ring
        fusion = dict(ring.fusion)
        fusion[(1, 1, 1)] = 2
        from mtcbound.fusion import FusionRing

        bad_ring = FusionRing(
            labels=ring.labels, unit=ring.unit, dual=ring.dual, fusion=fusion
        )
        report = validate_modular(ModularData(s=md.s, t=md.t, ring=bad_ring))
        assert "verlinde_matches_ring" in report.failed_names()


class TestConstructions:
    def test_reverse_is_an_involution(self):
        md = fib_md()
        assert reverse(reverse(md)).s == md.s

    def test_reverse_negates_central_charge(self):
        assert central_charge(reverse(fib_md())) == Fraction(-14, 5) % 8

    def test_box_adds_central_charges(self):
        a, b = ising_md(), fib_md()
        assert central_charge(box_tensor(a, b)) == (
            Fraction(1, 2) + Fraction(14, 5)
        ) % 8

    def test_double_passes_gate_and_validates(self):
        md = double(ising_md())
        assert central_charge(md) == 0
        assert validate_modular(md).ok

    def test_box_ring_is_product(self):
        md = box_tensor(toric_md(), fib_md())
        assert md.rank == 8
        assert md.ring is not None
        assert validate_modular(md).ok
