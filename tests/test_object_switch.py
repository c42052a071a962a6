"""The switch of the exact-integer rule in `mtcbound.fusion`: with
`_INT64_LIMIT` and `_FLOAT_EXACT` at 0, every value array of the numpy
layers is Python integers, and the CLI and the pointed invariants give
what the int64 and float64 branches give, byte for byte."""

import contextlib
import io
import pathlib

import pytest

from mtcbound import corpus, fusion, modular
from mtcbound.cli import main
from mtcbound.pointed import lagrangian_subgroups, milgram_signature

DATA = pathlib.Path(corpus.__file__).parent / "data"
COMMANDS = (["validate"], ["verdict"], ["verdict", "--pointed"], ["decompose"])


def cli_outcomes() -> dict:
    """(exit, stdout, stderr) of every command in JSON on every shipped
    fixture, run in-process."""
    outcomes = {}
    for name in corpus.fixture_names():
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + ["--format", "json", str(DATA / f"{name}.json")])
            outcomes[" ".join([name] + command)] = (code, out.getvalue(), err.getvalue())
    return outcomes


def pointed_invariants() -> dict:
    """The Milgram signature and the Lagrangian subgroups of every
    fixture's metric group, each built afresh."""
    specs = {name: corpus.build(name) for name in corpus.fixture_names()}
    return {
        name: (milgram_signature(spec.metric), lagrangian_subgroups(spec.metric))
        for name, spec in specs.items()
        if spec.metric is not None
    }


def clear_power_tables():
    modular._power_rows.cache_clear()
    modular._power_table.cache_clear()


@pytest.fixture
def python_integers(monkeypatch):
    """A function that sets the switch, with the cached power tables
    emptied around it, so that they too are made on Python integers."""

    def switch():
        clear_power_tables()
        monkeypatch.setattr(fusion, "_INT64_LIMIT", 0)
        monkeypatch.setattr(fusion, "_FLOAT_EXACT", 0)

    yield switch
    clear_power_tables()


def test_cli_output_is_the_same_on_python_integers(python_integers):
    want = cli_outcomes()
    assert len(want) == 4 * 16
    assert {code for code, _, _ in want.values()} >= {0, 2}
    python_integers()
    assert cli_outcomes() == want


def test_pointed_invariants_are_the_same_on_python_integers(python_integers):
    want = pointed_invariants()
    assert want
    python_integers()
    assert pointed_invariants() == want
