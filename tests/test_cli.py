import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import corpus, modular, pointed
from mtcbound.cli import build_parser, main
from mtcbound.cyclotomic import CONDUCTOR_CAP, Cyclotomic
from mtcbound.errors import MtcError, NumericError, SizeLimit
from mtcbound.modular import ModularData, validate_modular
from mtcbound.specfile import CategorySpecFile


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    corpus.write_all(directory)
    return directory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each field of each fixture, replaced by each value: the first four are
# wrong for every field, the rest are right for some
NEVER_VALID = ({}, [[1]], 1.5, True)
SOMETIMES_VALID = (None, "x", [], -1)


def malformed_field_sweep(fixture_dir, names=("toric_code", "fib_plus_z2")):
    """(name, path, value, document text) for every field of the named
    fixtures and every sweep value."""

    def paths(obj, prefix=()):
        # every key of every object, and the first item of every array
        items = obj.items() if isinstance(obj, dict) else list(enumerate(obj))[:1]
        for key, value in items:
            yield prefix + (key,)
            if isinstance(value, (dict, list)):
                yield from paths(value, prefix + (key,))

    for name in names:
        original = (fixture_dir / f"{name}.json").read_text()
        for path in paths(json.loads(original)):
            for value in NEVER_VALID + SOMETIMES_VALID:
                obj = json.loads(original)
                parent = obj
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                yield name, path, value, json.dumps(obj)


class TestValidate:
    def test_fixture_passes(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "validate", str(fixture_dir / "toric_code.json"))
        assert code == 0
        assert "[pass] balancing" in out

    def test_tampered_theta_exits_1_and_names_balancing(self, capsys, tmp_path, fixture_dir):
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        obj["modular_data"]["T"][3] = obj["modular_data"]["T"][0]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "[FAIL] balancing" in out

    @pytest.mark.parametrize("command", ["validate", "verdict"])
    def test_zero_twist_exits_1_with_a_report(self, capsys, tmp_path, fixture_dir, command):
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        del obj["metric_group"]
        obj["modular_data"]["T"][3] = {"N": 1, "c": [["0", "1"]]}
        bad = tmp_path / "zero-twist.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, command, "--format", "json", str(bad))
        assert (code, err) == (1, "")
        checks = json.loads(out)["reports"][0]["checks"]
        failed = [c["name"] for c in checks if not c["ok"]]
        assert failed == ["theta_root_of_unity", "balancing", "gauss_identity"]

    def test_huge_non_root_twist_exits_1_with_a_report(self, capsys, tmp_path, fixture_dir):
        # T_1 = 10^9000 (1 + i) is refused exactly, before the kernel,
        # whose mpmath ladder stops at 8,000 digits; Python's limit on
        # int-string conversion is lifted to write and read the file
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        del obj["metric_group"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            obj["modular_data"]["T"][1] = Cyclotomic(4, (10**9000, 10**9000)).to_json_dict()
            obj["modular_data"]["conductor"] = 4
            md = ModularData.from_json_dict(obj["modular_data"])
            failed = validate_modular(md).failed_names()
            bad = tmp_path / "huge-twist.json"
            bad.write_text(json.dumps(obj), encoding="utf-8")
            code, out, err = run(capsys, "validate", "--format", "json", str(bad))
            checks = json.loads(out)["reports"][0]["checks"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert failed == ["theta_root_of_unity", "balancing", "gauss_identity"]
        assert (code, err) == (1, "")
        assert [c["name"] for c in checks if not c["ok"]] == failed

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-string digit limit")
    @pytest.mark.parametrize("written", ["string", "number"])
    def test_coefficient_past_the_digit_limit_exits_2_by_name(
        self, capsys, tmp_path, fixture_dir, written
    ):
        # one digit past Python's int-string limit, which stays in force
        limit = sys.get_int_max_str_digits()
        huge = "1" + "0" * limit
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        del obj["metric_group"]
        obj["modular_data"]["T"][1] = {"N": 4, "c": [[huge, "1"], [huge, "1"]]}
        text = json.dumps(obj)
        if written == "number":
            text = text.replace(f'"{huge}"', huge)
        bad = tmp_path / "huge-coefficient.json"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"error: integer of more than {limit} digits: past Python's int-string "
            "conversion limit (sys.set_int_max_str_digits)\n"
        )
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-string digit limit")
    @pytest.mark.parametrize(
        "form",
        [
            "{}", "-{}", "1/{}", "{}/3", "0.{}", "{}e-2", "1e{}",
            pytest.param(
                "1 / {}",
                marks=pytest.mark.skipif(
                    sys.version_info < (3, 12), reason="Fraction reads a spaced slash from 3.12 on"
                ),
            ),
        ],
    )
    def test_q_value_past_the_digit_limit_exits_2_by_name(
        self, capsys, tmp_path, fixture_dir, form
    ):
        # the line that coefficients get, not a 5,000-character echo
        limit = sys.get_int_max_str_digits()
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        obj["metric_group"]["q"]["0,1"] = form.format("1" + "0" * limit)
        bad = tmp_path / "huge-q.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (2, "")
        assert err == (
            f"error: integer of more than {limit} digits: past Python's int-string "
            "conversion limit (sys.set_int_max_str_digits)\n"
        )
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int-string digit limit")
    @pytest.mark.parametrize("value", ["1e1000000000", "1e-1000000000", "-2.5E+1000000000"])
    def test_q_exponent_past_the_digit_limit_exits_2_at_once(
        self, capsys, tmp_path, fixture_dir, value
    ):
        # Fraction would build 10^(10^9) in full; the exponent is refused
        # before that, in well under a second
        limit = sys.get_int_max_str_digits()
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        obj["metric_group"]["q"]["0,1"] = value
        bad = tmp_path / "huge-exponent.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "validate", str(bad))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: integer of more than {limit} digits: past Python's int-string "
            "conversion limit (sys.set_int_max_str_digits)\n"
        )

    @pytest.mark.parametrize("command", [["validate"], ["verdict"], ["verdict", "--pointed"]])
    @pytest.mark.parametrize(
        "q, digits",
        [
            ({"0,1": "1e-4300"}, 4300),
            ({"0,1": "1/2", "1,0": f"1/{10**4200 + 3}", "1,1": f"1/{10**4200 + 1}"}, 8401),
        ],
        ids=["small exponent", "long denominators"],
    )
    def test_huge_conductor_exits_2_by_its_digit_count(self, capsys, tmp_path, command, q, digits):
        # q values within the digit limit whose common denominator, the
        # twists' conductor, has thousands of digits: one short line
        obj = json.loads(corpus.shipped_text("toric_code"))
        obj["metric_group"]["q"].update(q)
        bad = tmp_path / "huge-conductor.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, *command, str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: conductor of {digits} digits exceeds cap {CONDUCTOR_CAP}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "value",
        ["1/x", "1 / x", "1/0", "1/2/3", "1._5", "1.5/2", "1/2e1000000000", "1e 1000000000"],
    )
    def test_malformed_q_value_exits_2_as_a_bad_rational(
        self, capsys, tmp_path, fixture_dir, value
    ):
        def edit(obj):
            obj["metric_group"]["q"]["0,1"] = value

        err = self._malformed(capsys, tmp_path, fixture_dir, edit)
        assert err == f"error: bad rational {value!r} for element '0,1'\n"

    def test_nonexistent_path_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("[1, 2", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2

    def _malformed(self, capsys, tmp_path, fixture_dir, edit):
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        edit(obj)
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_non_integer_unit_exits_2(self, capsys, tmp_path, fixture_dir):
        def edit(obj):
            obj["modular_data"]["unit"] = "a"

        assert "unit" in self._malformed(capsys, tmp_path, fixture_dir, edit)

    def test_null_metric_value_exits_2(self, capsys, tmp_path, fixture_dir):
        def edit(obj):
            q = obj["metric_group"]["q"]
            q[next(iter(q))] = None

        assert "None" in self._malformed(capsys, tmp_path, fixture_dir, edit)

    def test_two_keys_of_one_element_exit_2(self, capsys, tmp_path, fixture_dir):
        # the semion's metric section alone, with "01" naming (1,) again:
        # once read as q = 0 there, it failed nondegenerate with exit 1
        obj = {"name": "semion", "metric_group": corpus.semion().metric.to_json_dict()}
        obj["metric_group"]["q"]["01"] = "0"
        bad = tmp_path / "repeated.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        for command in ("validate", "verdict"):
            code, out, err = run(capsys, command, str(bad))
            assert (code, out) == (2, "")
            assert err == "error: element keys '1' and '01' name one element\n"

    def test_conductor_over_cap_exits_2(self, capsys, tmp_path, fixture_dir):
        def edit(obj):
            obj["modular_data"]["T"][1] = {"N": CONDUCTOR_CAP + 1, "c": []}

        assert "cap" in self._malformed(capsys, tmp_path, fixture_dir, edit)

    def test_uncertified_sign_exits_2(self, capsys, fixture_dir, monkeypatch):
        # a number that cannot be certified refuses the input; no axiom
        # check has failed, so it is not exit 1
        def uncertified(self):
            raise NumericError("could not certify the sign at precision ceiling")

        monkeypatch.setattr(Cyclotomic, "real_sign", uncertified)
        code, out, err = run(capsys, "validate", str(fixture_dir / "ising.json"))
        assert code == 2 and not out
        assert err == "error: could not certify the sign at precision ceiling\n"

    def test_non_string_notes_exit_2(self, capsys, tmp_path, fixture_dir):
        def edit(obj):
            obj["notes"] = [1, None]

        assert "notes" in self._malformed(capsys, tmp_path, fixture_dir, edit)

    def test_huge_group_with_short_q_exits_2_fast(self, capsys, tmp_path):
        # a 10^12-element group named in a few bytes: q is measured
        # against the group order before any element is built
        doc = {"name": "huge", "metric_group": {"orders": [10**6, 10**6], "q": {"0,0": "0"}}}
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, _, err = run(capsys, "validate", str(bad))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "q is missing element (0, 1)" in err

    def test_boolean_orders_exit_2(self, capsys, tmp_path):
        # True is an int to isinstance; as an order it once loaded as 1
        # and was written back as true
        doc = {
            "name": "bool-orders",
            "metric_group": {"orders": [True, 2], "q": {"0,0": "0", "0,1": "1/4"}},
        }
        bad = tmp_path / "bool_orders.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "orders" in err

    def test_malformed_field_sweep_exits_2(self, capsys, tmp_path, fixture_dir):
        bad = tmp_path / "sweep.json"
        for name, path, value, text in malformed_field_sweep(fixture_dir):
            bad.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "validate", str(bad))
            case = (name, path, value, code, err)
            if value in NEVER_VALID or code == 2:
                assert code == 2, case
                assert err.startswith("error:") and err.count("\n") == 1, case
            else:
                assert code in (0, 1) and not err, case

    def test_malformed_modular_sections_load_as_a_per_entry_parse(
        self, fixture_dir, monkeypatch
    ):
        # the sweep's documents that change the modular section of a
        # fixture with rational, irrational or conductor-3 entries, loaded
        # once as they are and once with each S and T entry parsed on its
        # own: the same data or the same error
        names = ("toric_code", "ising", "fibonacci", "d_z3")
        documents = [
            doc
            for doc in malformed_field_sweep(fixture_dir, names)
            if doc[1][0] == "modular_data"
        ]

        def load(text):
            try:
                return CategorySpecFile.from_json_dict(json.loads(text))
            except MtcError as exc:
                return type(exc), str(exc)

        outcomes = [load(text) for *_, text in documents]
        errors = sum(isinstance(o, tuple) for o in outcomes)
        assert (len(documents), errors) == (832, 812)
        monkeypatch.setattr(modular, "_scalar_parser", lambda: Cyclotomic.from_json_dict)
        for (name, path, value, text), outcome in zip(documents, outcomes):
            assert load(text) == outcome, (name, path, value)

    def test_json_format(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "validate", "--format", "json", str(fixture_dir / "ising.json")
        )
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for r in payload["reports"] for c in r["checks"]]
        assert "verlinde_integral" in names


def _ragged_s(md):
    md["S"][1].pop()


def _short_t(md):
    md["T"].pop()


def _empty_s(md):
    md["S"] = []


def _duplicate_ring_labels(md):
    md["ring"]["labels"][1] = md["ring"]["labels"][0]


def _unit_out_of_range(md):
    md["unit"] = len(md["T"])


def _conductor_field_mismatch(md):
    md["conductor"] += 1


def _entry_conductor_10_12(md):
    md["T"][1] = {"N": 10**12, "c": [["1", "1"]]}


class TestMalformedInputs:
    """Malformed modular sections through every command that reads one:
    exit 2 and one line on stderr, never a traceback or exit 1."""

    @pytest.mark.parametrize("command", ("validate", "verdict", "decompose"))
    @pytest.mark.parametrize(
        "edit, message",
        (
            (_ragged_s, "S must be square"),
            (_short_t, "T must be a length-r vector"),
            (_empty_s, "empty S matrix"),
            (_duplicate_ring_labels, "duplicate labels"),
            (_unit_out_of_range, "unit index 3 out of range"),
            (_conductor_field_mismatch, "conductor field 17 does not match"),
            (_entry_conductor_10_12, "conductor 1000000000000 exceeds cap"),
        ),
    )
    def test_exits_2_with_one_stderr_line(
        self, capsys, tmp_path, fixture_dir, command, edit, message
    ):
        obj = json.loads((fixture_dir / "ising.json").read_text())
        edit(obj["modular_data"])
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, command, str(bad))
        assert code == 2, err
        assert not out
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err


class TestVerdict:
    def test_fibonacci(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "verdict", str(fixture_dir / "fibonacci.json"))
        assert code == 0
        assert "NoBoundary_CentralCharge" in out
        assert "14/5 mod 8" in out

    def test_pointed_toric(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "verdict", "--pointed", str(fixture_dir / "toric_code.json")
        )
        assert code == 0
        assert "ExactBoundaries" in out
        assert out.count("subgroup:") == 2

    def test_pointed_above_the_size_cap_exits_2(self, capsys, fixture_dir, monkeypatch):
        # a refused enumeration is refused input, not a failed axiom check
        monkeypatch.setattr(pointed, "SUBGROUP_SIZE_CAP", 2)
        code, out, err = run(capsys, "verdict", "--pointed", str(fixture_dir / "toric_code.json"))
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap 2" in err

    def test_pointed_enumeration_above_the_held_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "d2222.json"
        CategorySpecFile(name="d2222", metric=pointed.abelian_double((2,) * 4)).save(path)
        monkeypatch.setattr(pointed, "HELD_POSITIONS_CAP", 1000)
        code, out, err = run(capsys, "verdict", "--pointed", str(path))
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1
        assert "more than 1000 subgroup positions" in err

    def test_pointed_flag_without_metric_section(self, capsys, fixture_dir):
        code, _, err = run(
            capsys, "verdict", "--pointed", str(fixture_dir / "fibonacci.json")
        )
        assert code == 2
        assert "metric" in err

    def test_double_ising_candidates(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "verdict", str(fixture_dir / "double_ising.json"))
        assert code == 0
        assert "CandidatesFound" in out
        assert "[1, 0, 0, 0, 1, 0, 0, 0, 1]" in out

    def test_budget_env_exits_3(self, capsys, fixture_dir, monkeypatch):
        # pointed data do not search; the search on double(ising) makes
        # two forced nodes
        monkeypatch.setenv("MTC_SEARCH_BUDGET", "1")
        code, _, err = run(capsys, "verdict", str(fixture_dir / "double_ising.json"))
        assert code == 3
        assert "exceeded" in err

    def test_invalid_file_exits_1_before_search(self, capsys, tmp_path, fixture_dir):
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        obj["modular_data"]["T"][3] = obj["modular_data"]["T"][0]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = run(capsys, "verdict", str(bad))
        assert code == 1
        assert "[FAIL]" in out

    def test_json_determinism(self, capsys, fixture_dir):
        _, first, _ = run(
            capsys, "verdict", "--format", "json", str(fixture_dir / "double_ising.json")
        )
        _, second, _ = run(
            capsys, "verdict", "--format", "json", str(fixture_dir / "double_ising.json")
        )
        assert first == second


class TestDouble:
    def test_writes_validating_file(self, capsys, tmp_path, fixture_dir):
        out_path = tmp_path / "ds.json"
        code, out, _ = run(
            capsys, "double", str(fixture_dir / "semion.json"), str(out_path)
        )
        assert code == 0
        code, _, _ = run(capsys, "validate", str(out_path))
        assert code == 0
        doubled = CategorySpecFile.load(out_path)
        assert doubled.modular.rank == 4
        code, out, _ = run(capsys, "verdict", str(out_path))
        assert code == 0
        assert "0 mod 8" in out

    def test_needs_modular_section(self, capsys, tmp_path, fixture_dir):
        code, _, err = run(
            capsys, "double", str(fixture_dir / "m2.json"), str(tmp_path / "x.json")
        )
        assert code == 2

    def test_invalid_modular_section_exits_1_and_writes_nothing(
        self, capsys, tmp_path, fixture_dir
    ):
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        obj["modular_data"]["T"][3] = obj["modular_data"]["T"][0]
        bad, out_path = tmp_path / "tampered.json", tmp_path / "doubled.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(capsys, "double", "--format", "json", str(bad), str(out_path))
        assert (code, err) == (1, "")
        [report] = json.loads(out)["reports"]
        assert report["subject"] == "modular data"
        assert [c["name"] for c in report["checks"] if not c["ok"]] == [
            "balancing",
            "gauss_identity",
        ]
        assert not out_path.exists()

    def test_product_above_the_size_cap_exits_2_and_writes_nothing(
        self, capsys, tmp_path, fixture_dir, monkeypatch
    ):
        # the double of ising has 9^2 = 81 S entries and 10 * 10 fusion rows
        path, out_path = str(fixture_dir / "ising.json"), tmp_path / "di.json"
        monkeypatch.setattr(modular, "PRODUCT_SIZE_CAP", 99)
        code, out, err = run(capsys, "double", path, str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap of 99" in err
        assert not out_path.exists()
        monkeypatch.setattr(modular, "PRODUCT_SIZE_CAP", 100)
        assert run(capsys, "double", path, str(out_path))[0] == 0
        # data without a ring are capped by their S entries alone
        md = corpus.build("ising").modular
        bare = modular.ModularData(s=md.s, t=md.t, unit_index=md.unit_index)
        assert modular.double(bare).rank == 9
        monkeypatch.setattr(modular, "PRODUCT_SIZE_CAP", 80)
        with pytest.raises(SizeLimit, match="81 S entries and 0 fusion rows"):
            modular.double(bare)


class TestDecompose:
    def test_m2(self, capsys, fixture_dir):
        code, out, _ = run(capsys, "decompose", str(fixture_dir / "m2.json"))
        assert code == 0
        assert "components: 1" in out

    def test_fib_plus_z2(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "decompose", "--format", "json", str(fixture_dir / "fib_plus_z2.json")
        )
        payload = json.loads(out)
        assert len(payload["components"]) == 2
        assert len(payload["corners"]) == 2

    def test_m2_times_fib_corner(self, capsys, fixture_dir):
        code, out, _ = run(
            capsys, "decompose", "--format", "json", str(fixture_dir / "m2_times_fib.json")
        )
        payload = json.loads(out)
        corner = payload["corners"][0]
        assert corner["labels"] == ["(e11,1)", "(e11,tau)"]
        assert [0, 1, 1, 1] in corner["fusion"]  # tau x tau contains tau

    def test_needs_ring(self, capsys, tmp_path):
        metric_only = CategorySpecFile(name="m", metric=corpus.semion().metric)
        path = tmp_path / "m.json"
        metric_only.save(path)
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2

    @pytest.mark.parametrize("exponent", [200, 400])
    def test_huge_multiplicity_exits_2(self, capsys, tmp_path, exponent):
        # x x = 1 + n x is a valid ring for every n, but its FP dimension
        # (about n) and global dimension (about n^2) leave float64: 10^400
        # does not convert, 10^200 squares to infinity
        n = 10**exponent
        doc = {
            "name": "huge",
            "fusion_ring": {
                "labels": ["1", "x"],
                "unit": [0],
                "dual": [0, 1],
                "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, n]],
            },
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0, out
        code, out, err = run(capsys, "decompose", "--format", "json", str(path))
        assert (code, out) == (2, "")
        assert err == "error: multiplicity N[1,1,1] exceeds cap 2^53 for FP dimensions\n"


class TestRepeatedCalls:
    """One process, many calls: the parser is built once and reused."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_each_call_equals_a_first_call(self, capsys, tmp_path, fixture_dir):
        toric = str(fixture_dir / "toric_code.json")
        out_path = str(tmp_path / "double.json")
        calls = [
            ("verdict", "--pointed", toric),
            ("verdict", toric),
            ("verdict", "--format", "json", "--pointed", toric),
            ("verdict", "--format", "json", toric),
            ("validate", "--format", "json", toric),
            ("validate", toric),
            ("double", str(fixture_dir / "semion.json"), out_path),
            ("decompose", str(fixture_dir / "m2.json")),
            ("fixtures",),
        ]
        first = {}
        for argv in calls:
            build_parser.cache_clear()
            code, out, _ = run(capsys, *argv)
            first[argv] = (code, out)
        # --pointed must not carry over to the next verdict
        assert "subgroup:" in first[calls[0]][1]
        assert "subgroup:" not in first[calls[1]][1]
        assert json.loads(first[calls[2]][1]) != json.loads(first[calls[3]][1])
        for argv in calls + calls[::-1]:
            code, out, _ = run(capsys, *argv)
            assert (code, out) == first[argv], argv

    @pytest.mark.parametrize(
        "argv", [[], ["verdict"], ["nonsense"], ["validate", "--format", "xml", "f.json"]]
    )
    def test_bad_argv_still_exits_2(self, capsys, fixture_dir, argv):
        toric = str(fixture_dir / "toric_code.json")
        expected = run(capsys, "verdict", toric)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: mtcbound")
        assert run(capsys, "verdict", toric) == expected


class TestFixturesCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert out.splitlines() == corpus.fixture_names()

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--format", "json")
        assert json.loads(out)["fixtures"] == corpus.fixture_names()


def _mutate(obj: dict, mutation: tuple, other_ring) -> None:
    """Apply one mutation to the modular section of a fixture document."""
    md = obj["modular_data"]
    kind, i, j, value = mutation
    s, t = md["S"], md["T"]
    if kind == "drop_entry" and s and s[i % len(s)]:
        s[i % len(s)].pop(j % len(s[i % len(s)]))
    elif kind == "drop_row" and s:
        s.pop(i % len(s))
    elif kind == "extra_row" and s:
        s.append(list(s[i % len(s)]))
    elif kind == "scalar" and s and s[i % len(s)]:
        s[i % len(s)][j % len(s[i % len(s)])] = value
    elif kind == "conductor":
        target = [e for row in s for e in row if isinstance(e, dict)] + t
        if target and isinstance(target[i % len(target)], dict):
            target[i % len(target)]["N"] = value
    elif kind == "coefficients":
        target = [e for row in s for e in row if isinstance(e, dict)] + t
        if target and isinstance(target[i % len(target)], dict):
            c = target[i % len(target)]["c"]
            if j % 2 and isinstance(c, list) and c:
                c.pop()
            elif isinstance(c, list):
                c.append(["0", "1"])
    elif kind == "short_t" and t:
        t.pop()
    elif kind == "swap_t" and t:  # well formed, so usually a failed check
        a, b = i % len(t), j % len(t)
        t[a], t[b] = t[b], t[a]
    elif kind == "unit":
        md["unit"] = value
    elif kind == "ring":
        md["ring"] = other_ring


MUTATIONS = st.one_of(
    st.tuples(
        st.sampled_from(
            ("drop_entry", "drop_row", "extra_row", "coefficients", "short_t", "swap_t", "ring")
        ),
        st.integers(0, 80),
        st.integers(0, 80),
        st.none(),
    ),
    st.tuples(
        st.just("scalar"),
        st.integers(0, 80),
        st.integers(0, 80),
        st.sampled_from((1, 0.5, "x", None, [], [1, 2], True, {"N": 1}, {"c": []})),
    ),
    st.tuples(
        st.just("conductor"),
        st.integers(0, 80),
        st.integers(0, 80),
        st.sampled_from((0, -1, -12, 10**7, 10**30, True, 2.0, "3", None)),
    ),
    st.tuples(
        st.just("unit"),
        st.integers(0, 80),
        st.integers(0, 80),
        st.sampled_from((True, False, 1.0, 0.5, -1, 1, 3, 9, 10**20, "0", None)),
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    corpus.write_all(directory)
    return directory


class TestModularSectionFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(("toric_code", "ising", "fibonacci", "d_z3", "double_ising")),
        mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
    )
    def test_mutated_modular_sections_exit_cleanly(self, fuzz_dir, name, mutations):
        # every document either exits 2 with one error line or runs to a
        # verdict on its checks (0 or 1) with nothing on stderr; `verdict`
        # may also stop on a failed exact check (1) or the search budget
        # (3), each with one error line, and never with a traceback
        obj = json.loads((fuzz_dir / f"{name}.json").read_text())
        other = "fibonacci" if name != "fibonacci" else "ising"
        other_ring = json.loads((fuzz_dir / f"{other}.json").read_text())["modular_data"]["ring"]
        for mutation in mutations:
            _mutate(obj, mutation, other_ring)
        path = fuzz_dir / "mutated.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        err = err.getvalue()
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1, (mutations, err)
        else:
            assert code in (0, 1) and not err, (mutations, code, err)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verdict", str(path), "--format", "json"])
        err = err.getvalue()
        assert code in (0, 1, 2, 3), (mutations, code, err)
        assert not err or (err.startswith("error:") and err.count("\n") == 1), (mutations, err)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mtcbound", "fixtures"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "toric_code" in proc.stdout
