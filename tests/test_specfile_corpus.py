import json
from pathlib import Path

import pytest

from mtcbound import corpus
from mtcbound.errors import InputError
from mtcbound.fusion import group_ring
from mtcbound.modular import ModularData
from mtcbound.specfile import CategorySpecFile


class TestSpecFile:
    def test_needs_a_section(self):
        with pytest.raises(InputError):
            CategorySpecFile(name="empty")

    def test_needs_a_name(self):
        with pytest.raises(InputError):
            CategorySpecFile(name="", ring=corpus.m2().ring)

    def test_unknown_section_rejected(self):
        with pytest.raises(InputError):
            CategorySpecFile.from_json_dict({"name": "x", "surprise": {}})

    def test_malformed_file_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InputError):
            CategorySpecFile.load(path)
        with pytest.raises(InputError):
            CategorySpecFile.load(tmp_path / "missing.json")

    def test_cross_section_mismatch_is_reported_not_raised(self):
        toric = corpus.toric_code()
        md = toric.modular
        bad_md = ModularData(
            s=md.s, t=(md.t[0], md.t[1], md.t[2], md.t[0]), ring=md.ring
        )
        spec = CategorySpecFile(name="tampered", modular=bad_md, metric=toric.metric)
        report = spec.cross_section_checks()
        assert "metric_regenerates_modular" in report.failed_names()

    def test_fusion_section_is_checked_against_the_modular_ring(self):
        toric = corpus.toric_code().modular
        for ring, ok in ((toric.ring, True), (group_ring((4,)), False)):
            spec = CategorySpecFile(name="toric", ring=ring, modular=toric)
            report = spec.cross_section_checks()
            assert [(c.name, c.ok) for c in report.checks] == [
                ("fusion_section_matches_modular_ring", ok)
            ]

    def test_effective_sections(self):
        toric = corpus.toric_code()
        assert toric.effective_modular() is toric.modular
        assert toric.effective_ring() is toric.modular.ring
        metric_only = CategorySpecFile(name="m", metric=toric.metric)
        regenerated = metric_only.effective_modular()
        assert regenerated is not None and regenerated.s == toric.modular.s
        assert corpus.m2().effective_ring() is not None
        assert corpus.m2().effective_modular() is None

    def test_save_load_round_trip(self, tmp_path):
        spec = corpus.ising()
        path = tmp_path / "ising.json"
        spec.save(path)
        again = CategorySpecFile.load(path)
        assert again.dumps() == spec.dumps()
        assert again.modular.s == spec.modular.s
        assert again.notes == spec.notes


class TestCorpus:
    def test_sixteen_fixtures(self):
        names = corpus.fixture_names()
        assert len(names) == 16
        for required in (
            "trivial",
            "semion",
            "double_semion",
            "toric_code",
            "ising",
            "fibonacci",
            "d_z3",
            "double_ising",
            "m2",
            "fib_plus_z2",
            "m2_times_fib",
        ):
            assert required in names

    def test_every_double_is_shipped(self):
        names = set(corpus.fixture_names())
        for base in corpus.BASE_MODULAR_FIXTURES:
            doubled = {
                "trivial": "double_trivial",
                "semion": "double_of_semion",
                "double_semion": "double_of_double_semion",
                "toric_code": "double_toric_code",
                "ising": "double_ising",
                "fibonacci": "double_fibonacci",
            }[base]
            assert doubled in names

    def test_shipped_bytes_match_regenerated(self):
        # guards against the data files drifting from the constructors
        for name in corpus.fixture_names():
            assert corpus.shipped_text(name) == corpus.build(name).dumps(), name

    def test_shipped_files_parse(self):
        for name in corpus.fixture_names():
            spec = corpus.load_shipped(name)
            assert spec.name == name

    def test_every_fixture_has_notes(self):
        for name in corpus.fixture_names():
            assert corpus.build(name).notes, name

    def test_cross_sections_consistent(self):
        for name in corpus.fixture_names():
            report = corpus.build(name).cross_section_checks()
            assert report.ok, name

    def test_unknown_fixture_name(self):
        with pytest.raises(KeyError):
            corpus.build("not_a_fixture")

    def test_write_all_round_trips(self, tmp_path):
        paths = corpus.write_all(tmp_path)
        assert len(paths) == 16
        for path in paths:
            loaded = CategorySpecFile.load(path)
            assert loaded.dumps() == corpus.build(loaded.name).dumps()

    def test_load_then_save_is_byte_identical(self, tmp_path):
        # S entries repeat (toric code: two distinct values in 16), and
        # parsing and writing them once per distinct value keeps the bytes
        assert len({str(e) for row in corpus.toric_code().modular.s for e in row}) == 2
        for path in map(Path, corpus.write_all(tmp_path)):
            again = tmp_path / "again.json"
            CategorySpecFile.load(path).save(again)
            assert again.read_bytes() == path.read_bytes(), path.name

    def test_write_all_creates_a_missing_directory(self, tmp_path):
        paths = corpus.write_all(tmp_path / "new")
        assert len(paths) == 16
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(
            f"{name}.json" for name in corpus.fixture_names()
        )

    def test_double_fixture_equals_double_of_base(self):
        from mtcbound.modular import double

        base = corpus.ising().modular
        shipped = corpus.build("double_ising").modular
        assert shipped.s == double(base).s and shipped.t == double(base).t
