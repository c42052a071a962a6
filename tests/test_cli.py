import json
import subprocess
import sys
import time

import pytest

from mtcbound import corpus, modular
from mtcbound.cli import build_parser, main
from mtcbound.cyclotomic import CONDUCTOR_CAP, Cyclotomic
from mtcbound.errors import MtcError
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

    def test_conductor_over_cap_exits_2(self, capsys, tmp_path, fixture_dir):
        def edit(obj):
            obj["modular_data"]["T"][1] = {"N": CONDUCTOR_CAP + 1, "c": []}

        assert "cap" in self._malformed(capsys, tmp_path, fixture_dir, edit)

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
        monkeypatch.setenv("MTC_SEARCH_BUDGET", "1")
        code, _, err = run(capsys, "verdict", str(fixture_dir / "double_toric_code.json"))
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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mtcbound", "fixtures"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "toric_code" in proc.stdout
