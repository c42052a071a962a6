"""Golden CLI output: `validate`, `verdict` and, on files with a metric
section, `verdict --pointed` in JSON on every shipped fixture, pinned
byte for byte (exit code, stdout, stderr).

`decompose` is left out: its corner dimensions are float eigenvalues,
which may differ in the last digits between numpy and BLAS builds.

Regenerate tests/data/golden_cli.json, only when an output change is
intended, with `PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from mtcbound import corpus
from mtcbound.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_cli.json"
DATA = pathlib.Path(corpus.__file__).parent / "data"


def commands(name: str) -> list:
    """The argument vectors pinned for one fixture, its file path last."""
    path = DATA / f"{name}.json"
    text = corpus.shipped_text(name)
    runs = [["validate"], ["verdict"]]
    if '"metric_group"' in text:
        runs.append(["verdict", "--pointed"])
    return [run + ["--format", "json", str(path)] for run in runs]


def outcome(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def key(name: str, argv: list) -> str:
    return " ".join([name] + argv[:-1])


def outcomes() -> dict:
    return {
        key(name, argv): outcome(argv)
        for name in corpus.fixture_names()
        for argv in commands(name)
    }


def test_every_fixture_is_pinned():
    assert len(corpus.fixture_names()) == 16
    golden = json.loads(GOLDEN.read_text())
    keys = [key(name, argv) for name in corpus.fixture_names() for argv in commands(name)]
    assert sorted(keys) == sorted(golden)


@pytest.mark.parametrize(
    "name, argv",
    [(name, argv) for name in corpus.fixture_names() for argv in commands(name)],
    ids=lambda x: x if isinstance(x, str) else " ".join(x[:-3]),
)
def test_cli_output_is_pinned(name, argv):
    golden = json.loads(GOLDEN.read_text())
    assert outcome(argv) == golden[key(name, argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outcomes(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
