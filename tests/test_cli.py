import json
import subprocess
import sys
import time

import pytest

from mtcbound import corpus
from mtcbound.cli import main
from mtcbound.cyclotomic import CONDUCTOR_CAP
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
        # each field of each fixture, replaced by each value: the first
        # four are wrong for every field, the rest are right for some
        never_valid = ({}, [[1]], 1.5, True)
        sometimes_valid = (None, "x", [], -1)

        def paths(obj, prefix=()):
            # every key of every object, and the first item of every array
            items = obj.items() if isinstance(obj, dict) else list(enumerate(obj))[:1]
            for key, value in items:
                yield prefix + (key,)
                if isinstance(value, (dict, list)):
                    yield from paths(value, prefix + (key,))

        bad = tmp_path / "sweep.json"
        for name in ("toric_code", "fib_plus_z2"):
            original = (fixture_dir / f"{name}.json").read_text()
            for path in paths(json.loads(original)):
                for value in never_valid + sometimes_valid:
                    obj = json.loads(original)
                    parent = obj
                    for key in path[:-1]:
                        parent = parent[key]
                    parent[path[-1]] = value
                    bad.write_text(json.dumps(obj), encoding="utf-8")
                    code, _, err = run(capsys, "validate", str(bad))
                    case = (name, path, value, code, err)
                    if value in never_valid or code == 2:
                        assert code == 2, case
                        assert err.startswith("error:") and err.count("\n") == 1, case
                    else:
                        assert code in (0, 1) and not err, case

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
