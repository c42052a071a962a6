"""JSON I/O against its reference routes.

`specfile.json_text` must give the bytes of the stdlib's indenting
encoder on any document, and every CLI call must print and write the
same bytes through either.  Loading must raise the same first error as
the row-by-row fusion scan and the per-entry scalar parse."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import cli, corpus, fusion, modular, specfile
from mtcbound.cli import main
from mtcbound.cyclotomic import Cyclotomic
from mtcbound.pointed import abelian_double, metric_modular_data
from mtcbound.specfile import CategorySpecFile, json_text

from tests.helpers import field_keyed_scalar_parser, row_scan_json_table, stdlib_json_text

# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, -1e-300, 0.1)
ODD_STRINGS = (
    "",
    "\ud800",
    "\udfff x",
    "\x00\x1f\x7f",
    'q"\\/\n\r\t',
    "é",
    "日本",
    "\U0001f4a5",
)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(ODD_STRINGS),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        # arrays and tables of bools and ints side by side
        st.lists(st.lists(st.sampled_from((0, 1, True, False, -1)), min_size=1, max_size=3)),
        st.lists(st.lists(st.integers(), min_size=0, max_size=3), max_size=3),
    )


documents = st.recursive(leaves, _containers, max_leaves=25)


@st.composite
def shared_documents(draw):
    """One container reached at two or more depths of one document."""
    shared = draw(_containers(documents))
    other = draw(documents)
    return draw(
        st.sampled_from(
            (
                [shared, {"a": shared, "b": [shared, [shared]]}, other],
                {"x": shared, "y": (shared, other), "z": {"w": [[shared]]}},
                [[shared, shared], shared],
            )
        )
    )


class TestJsonText:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(doc=documents)
    def test_matches_the_stdlib_encoder(self, doc):
        assert json_text(doc) == stdlib_json_text(doc)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=shared_documents())
    def test_a_shared_container_at_two_depths(self, doc):
        assert json_text(doc) == stdlib_json_text(doc)

    def test_successive_calls_reuse_no_object_id(self):
        # each document dies before the next is built, so CPython hands
        # its dicts' addresses to the next one's dicts of other content
        for n in range(200):
            doc = {"S": [[{"N": n, "c": [["1", str(n)]]}] * 2] * 2, "T": [{"v": n}, {"v": n}]}
            assert json_text(doc) == stdlib_json_text(doc), n
            del doc

    def test_leaves_and_empty_containers(self):
        for doc in (
            [True, 1, False, 0, None, 1.0, -0.0],
            {"a": [], "b": {}, "c": [[]], "d": [{}], "e": ()},
            [2**64, -(2**64) - 1, 10**100],
            {3: "x", -1: [1, 2], 0: {}},
            {"\ud800": "\x00", "é": "\U0001f4a5"},
            "top",
            7,
            None,
            float("nan"),
        ):
            assert json_text(doc) == stdlib_json_text(doc), doc

    def test_unserialisable_values_raise_as_the_stdlib_does(self):
        for doc in ([object()], {(1, 2): 3}, {"a": {1, 2}}):
            with pytest.raises(TypeError) as ours:
                json_text(doc)
            with pytest.raises(TypeError) as theirs:
                stdlib_json_text(doc)
            assert str(ours.value) == str(theirs.value)

    def test_fixtures_and_a_rank_81_double(self):
        specs = [corpus.build(name) for name in corpus.fixture_names()]
        md = metric_modular_data(abelian_double((3, 3)))
        specs.append(CategorySpecFile(name="d33", modular=md, metric=abelian_double((3, 3))))
        for spec in specs:
            obj = spec.to_json_dict()
            assert spec.dumps() == json_text(obj) == stdlib_json_text(obj), spec.name

    def test_save_writes_the_same_bytes(self, tmp_path):
        for name in ("ising", "d_z3", "m2_times_fib"):
            spec = corpus.build(name)
            spec.save(tmp_path / "out.json")
            text = (tmp_path / "out.json").read_text(encoding="utf-8")
            assert text == stdlib_json_text(spec.to_json_dict()), name


# ---------------------------------------------------------------------------
# every CLI JSON byte through either writer
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    corpus.write_all(directory)
    return directory


def _call(argv, out_path=None) -> tuple:
    """(exit code, stdout, stderr, written file text or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = None
    if out_path is not None and out_path.exists():
        written = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return code, out.getvalue(), err.getvalue(), written


def _stdlib_writer(monkeypatch) -> None:
    monkeypatch.setattr(cli, "json_text", stdlib_json_text)
    monkeypatch.setattr(specfile, "_json_pieces", lambda obj: [stdlib_json_text(obj)])


class TestCliJsonBytes:
    def test_every_command_on_every_fixture(self, fixture_dir, tmp_path, monkeypatch):
        out_path = tmp_path / "double.json"
        calls = []
        for name in corpus.fixture_names():
            path = str(fixture_dir / f"{name}.json")
            for argv in (
                ["validate", path],
                ["verdict", path],
                ["verdict", "--pointed", path],
                ["double", path, str(out_path)],
                ["decompose", path],
            ):
                calls.append(argv + ["--format", "json"])
        ours = [_call(argv, out_path) for argv in calls]
        _stdlib_writer(monkeypatch)
        theirs = [_call(argv, out_path) for argv in calls]
        for argv, a, b in zip(calls, ours, theirs):
            assert a == b, argv
        # the calls ran to the commands' outputs, not only to errors
        assert sum(code == 0 and out.startswith("{") for code, out, _, _ in ours) >= 50
        assert sum(written is not None for *_, written in ours) == 13


# ---------------------------------------------------------------------------
# loading: the same first error as the row-by-row and per-entry routes
# ---------------------------------------------------------------------------


def _oracle_loader(monkeypatch) -> None:
    monkeypatch.setattr(fusion, "_json_table", row_scan_json_table)
    monkeypatch.setattr(modular, "_scalar_parser", lambda: Cyclotomic.from_json_dict)


def _outcomes(paths_and_commands) -> list:
    return [_call([command, str(path)])[:3] for path, command in paths_and_commands]


ROW_MUTATIONS = st.tuples(
    st.sampled_from(
        (
            "short",  # a row of length 3
            "long",  # a row of length 5
            "bool",
            "float",
            "string_entry",
            "string_row",
            "out_of_range",
            "huge",
            "duplicate",
            "drop",
            "bad_dual",  # a header fault, named only after every row fault
        )
    ),
    st.integers(0, 60),
    st.integers(0, 60),
)


def _mutate_ring(ring: dict, mutation: tuple) -> None:
    kind, i, j = mutation
    rows = ring["fusion"]
    if kind == "bad_dual":
        ring["dual"] = [0] * len(ring["dual"])
    if not rows:
        return
    i, j4 = i % len(rows), j % 4
    row = rows[i]
    if not isinstance(row, list) or len(row) != 4:
        return
    if kind == "short":
        row.pop()
    elif kind == "long":
        row.append(0)
    elif kind == "bool":
        row[j4] = bool(row[j4])
    elif kind == "float":
        row[j4] = float(row[j4])
    elif kind == "string_entry":
        row[j4] = str(row[j4])
    elif kind == "string_row":
        rows[i] = json.dumps(row)
    elif kind == "out_of_range":
        row[j % 3] = 1000 if j % 2 else -1
    elif kind == "huge":
        row[j4] = 2**70
    elif kind == "duplicate":
        rows.insert(j % (len(rows) + 1), list(row))
    elif kind == "drop":
        rows.pop(i)


RING_TARGETS = (
    ("m2", ("fusion_ring",)),
    ("fib_plus_z2", ("fusion_ring",)),
    ("m2_times_fib", ("fusion_ring",)),
    ("ising", ("modular_data", "ring")),
)


class TestRepeatedKeys:
    """`fusion._has_repeated_key` takes one neighbour comparison on rows
    in increasing (i, j, k) order and sorts only other tables."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.tuples(*(st.integers(0, 3),) * 3), max_size=12),
        sort=st.booleans(),
    )
    def test_against_a_set_of_keys(self, keys, sort):
        if sort:
            keys = sorted(keys)
        table = np.array([key + (1,) for key in keys], dtype=np.int64).reshape(-1, 4)
        assert fusion._has_repeated_key(table) == (len(set(keys)) < len(keys)), keys

    def test_sorted_tables_are_not_sorted_again(self, monkeypatch):
        table = fusion.group_ring((3, 3)).table

        def refuse(*_):
            raise AssertionError("lexsort on a sorted table")

        monkeypatch.setattr(fusion.np, "lexsort", refuse)
        assert not fusion._has_repeated_key(table)
        with pytest.raises(AssertionError):
            fusion._has_repeated_key(np.concatenate((table, table[:1])))


class TestLoaderFuzz:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        target=st.sampled_from(RING_TARGETS),
        mutations=st.lists(ROW_MUTATIONS, min_size=1, max_size=4),
    )
    def test_fusion_rows(self, fixture_dir, tmp_path_factory, target, mutations):
        name, section = target
        obj = json.loads((fixture_dir / f"{name}.json").read_text())
        ring = obj
        for key in section:
            ring = ring[key]
        for mutation in mutations:
            _mutate_ring(ring, mutation)
        path = tmp_path_factory.mktemp("rows") / "doc.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        runs = [(path, "validate"), (path, "decompose")]
        ours = _outcomes(runs)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _oracle_loader(monkeypatch)
            theirs = _outcomes(runs)
        assert ours == theirs, mutations
        for code, _, err in ours:
            assert code in (0, 1) and not err or code == 2 and err.count("\n") == 1

    def test_a_duplicate_after_an_out_of_range_key(self, fixture_dir, tmp_path, monkeypatch):
        obj = json.loads((fixture_dir / "m2.json").read_text())
        rows = obj["fusion_ring"]["fusion"]
        rows.insert(1, [0, 0, 99, 1])
        rows.append(list(rows[0]))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        ours = _outcomes([(path, "validate")])
        assert ours[0][0] == 2 and "duplicate fusion triple" in ours[0][2]
        _oracle_loader(monkeypatch)
        assert _outcomes([(path, "validate")]) == ours

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(("toric_code", "ising", "fibonacci", "d_z3")),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(("joined", "int_one", "true_one", "triple", "bool_n", "float_n")),
                st.integers(0, 200),
                st.integers(0, 8),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_scalars(self, fixture_dir, tmp_path_factory, name, mutations):
        # "12" for ["1", "2"], [true, "1"] after [1, "1"], a pair of
        # three strings, and a boolean or float conductor
        obj = json.loads((fixture_dir / f"{name}.json").read_text())
        md = obj["modular_data"]
        entries = [e for row in md["S"] for e in row] + md["T"]
        for kind, i, k in mutations:
            entry = entries[i % len(entries)]
            pairs = entry["c"]
            pair = pairs[k % len(pairs)]
            p, q = ("1", "2")
            if isinstance(pair, list) and len(pair) == 2 and set(map(type, pair)) == {str}:
                p, q = pair
            if kind == "joined":
                pairs[k % len(pairs)] = p + q
            elif kind == "int_one":
                pairs[k % len(pairs)] = [1, "1"]
            elif kind == "true_one":
                pairs[k % len(pairs)] = [True, "1"]
            elif kind == "triple":
                pairs[k % len(pairs)] = [p, q, "1"]
            elif kind == "bool_n":
                entry["N"] = entry["N"] == 1
            else:
                entry["N"] = float(entry["N"])
        path = tmp_path_factory.mktemp("scalars") / "doc.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        runs = [(path, "validate")]
        ours = _outcomes(runs)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _oracle_loader(monkeypatch)
            assert _outcomes(runs) == ours, mutations
            monkeypatch.setattr(modular, "_scalar_parser", field_keyed_scalar_parser)
            assert _outcomes(runs) == ours, mutations

    def test_true_after_one_is_refused(self, fixture_dir, tmp_path):
        obj = json.loads((fixture_dir / "toric_code.json").read_text())
        s = obj["modular_data"]["S"]
        s[0][0]["c"] = [[1, "2"]]
        s[0][1]["c"] = [[True, "2"]]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, _, err = _outcomes([(path, "validate")])[0]
        assert code == 2 and err == "error: bad coefficient entry [True, '2']\n"


class TestUnreadableFiles:
    def test_non_utf8_exits_2(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = _outcomes([(path, "validate")])[0]
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1 and "UTF-8" in err

    def test_deep_nesting_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        for command in ("validate", "verdict", "decompose"):
            code, out, err = _outcomes([(path, command)])[0]
            assert code == 2 and not out
            assert err.startswith("error:") and err.count("\n") == 1 and "nested" in err
