"""The S n = n system of the candidate search: its numpy elimination
against the Python-list route it replaced
(`tests.helpers.list_reduced_system`), its Gram-matrix rows against one
object cast per orbit member and, by reduced form and candidates,
against the distinct rows of the system itself, the theta-trivial
labels read as twist exponent 0 against one comparison per label, and the
search's output, node count and budget on both routes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcbound import corpus, fusion, obstruction
from mtcbound.cyclotomic import ZERO, Cyclotomic, zeta
from mtcbound.errors import NonModular, SearchBudgetExceeded
from mtcbound.modular import ModularData, _twist_exponents, box_tensor, double, reverse
from mtcbound.obstruction import _fixed_space_rows, _reduced_system, candidate_search, verdict
from mtcbound.pointed import abelian_double, metric_modular_data
from tests.helpers import (
    list_reduced_system,
    per_label_theta_trivial,
    per_member_fixed_space_matrix,
    per_member_fixed_space_rows,
    seeded_triple_double_semion,
)


def assert_same_system(got, want, label) -> None:
    """Equal dicts with their pivots in the same order, or both None."""
    assert (got is None) == (want is None), label
    if want is not None:
        assert list(got.items()) == list(want.items()), label


def assert_same_contents(got, want, label) -> None:
    """Equal dicts in any pivot order, or both None."""
    assert (got is None) == (want is None), label
    if want is not None:
        assert got == want, label


def row_form_candidates(md) -> list:
    """`candidate_search` on the distinct rows of A, reduced by the list
    route, in place of the Gram matrix."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obstruction, "_fixed_space_rows", per_member_fixed_space_rows)
        mp.setattr(obstruction, "_reduced_system", list_reduced_system)
        return candidate_search(md)


@pytest.fixture(scope="module")
def data() -> dict:
    out = {}
    for name in corpus.fixture_names():
        spec = corpus.build(name)
        if spec.modular is not None:
            out[name] = spec.modular
    for name in corpus.BASE_MODULAR_FIXTURES:
        out[f"double({name})"] = double(corpus.build(name).modular)
    ising, semion, fib = (corpus.build(n).modular for n in ("ising", "semion", "fibonacci"))
    out["double(ising x semion)"] = double(box_tensor(ising, semion))
    out["double(ising x reverse(semion))"] = double(box_tensor(ising, reverse(semion)))
    out["double(ising x fibonacci)"] = double(box_tensor(ising, fib))
    rng = random.Random(64)
    base = corpus.double_semion().metric
    for k in range(8):
        out[f"ds^3 basis {k}"] = metric_modular_data(seeded_triple_double_semion(rng, base))
    for orders in ((2, 2), (3, 3), (2, 2, 2), (4, 4)):
        out[f"abelian_double{orders}"] = metric_modular_data(abelian_double(orders))
    return out


@pytest.fixture(scope="module")
def built(data) -> list:
    """(label, md, columns) of every system the candidate search builds
    on the data (`verdict` answers pointed data without one)."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for label, md in data.items():

            def spy(md, columns, label=label):
                out.append((label, md, columns))
                return _fixed_space_rows(md, columns)

            mp.setattr(obstruction, "_fixed_space_rows", spy)
            candidate_search(md)
    return out


class TestElimination:
    def test_numpy_route_equals_list_route_on_every_verdict_system(self, built):
        labels = set()
        for label, md, columns in built:
            rows = _fixed_space_rows(md, columns)
            assert rows.dtype == np.int64, label
            want = list_reduced_system(rows.tolist(), len(columns))
            assert_same_system(_reduced_system(rows, len(columns)), want, label)
            labels.add(label)
        # every datum with c = 0 builds one system
        assert {"double(ising x fibonacci)", "ds^3 basis 7", "abelian_double(4, 4)"} <= labels
        assert len(labels) >= 30

    def test_rows_equal_the_per_member_oracle(self, built):
        # the rows are those of the Gram matrix A^T A of the oracle's A
        for label, md, columns in built:
            rows = _fixed_space_rows(md, columns)
            a = per_member_fixed_space_matrix(md, columns)
            assert rows.tolist() == (a.T @ a).tolist(), label

    def test_gram_rows_give_the_row_form_system_and_candidates(self, built):
        for label, md, columns in built:
            want = list_reduced_system(per_member_fixed_space_rows(md, columns), len(columns))
            got = _reduced_system(_fixed_space_rows(md, columns), len(columns))
            assert_same_contents(got, want, label)
            assert candidate_search(md) == row_form_candidates(md), label

    def test_object_path_gives_the_same_system(self, built, monkeypatch):
        # with no float64 or int64 headroom, the Gram matrix is formed
        # and reduced as Python integers throughout
        monkeypatch.setattr(fusion, "_INT64_LIMIT", 0)
        monkeypatch.setattr(fusion, "_FLOAT_EXACT", 0)
        for label, md, columns in built:
            rows = _fixed_space_rows(md, columns)
            assert rows.dtype == object, label
            a = per_member_fixed_space_matrix(md, columns)
            assert rows.tolist() == (a.T @ a).tolist(), label
            want = list_reduced_system(rows.tolist(), len(columns))
            assert_same_system(_reduced_system(rows, len(columns)), want, label)
            assert_same_system(_reduced_system(rows.astype(np.int64), len(columns)), want, label)
            row_form = list_reduced_system(per_member_fixed_space_rows(md, columns), len(columns))
            assert_same_contents(want, row_form, label)
        for label, md, _ in built:
            assert candidate_search(md) == row_form_candidates(md), label

    def test_search_output_node_count_and_budget_are_unchanged(self, data, monkeypatch):
        def nodes(md) -> int:
            # the least budget the search fits in: double, then bisect
            high = 0
            while not fits(md, high):
                high = 2 * high or 1
            low = high // 2  # does not fit, unless high is 0
            while high - low > 1:
                mid = (low + high) // 2
                low, high = (low, mid) if fits(md, mid) else (mid, high)
            return high

        def search(md, budget) -> list:
            # MTC_SEARCH_BUDGET refuses 0, which the bisection needs
            with monkeypatch.context() as mp:
                mp.setattr(obstruction, "search_budget", lambda: budget)
                return candidate_search(md)

        def fits(md, budget) -> bool:
            try:
                search(md, budget)
            except SearchBudgetExceeded:
                return False
            return True

        counted = 0
        for label, md in data.items():
            with monkeypatch.context() as mp:
                mp.setattr(obstruction, "_reduced_system", list_reduced_system)
                want = candidate_search(md)
                count = nodes(md)
            assert candidate_search(md) == want, label
            assert search(md, count) == want, label
            if count:
                with pytest.raises(SearchBudgetExceeded):
                    search(md, count - 1)
                counted += 1
        assert counted >= 25

    def test_unit_column_pivot_gives_none(self):
        rows = np.array([[1, 2, 0], [0, 0, 5], [1, 1, 1]])
        assert _reduced_system(rows, 3) is None
        assert list_reduced_system(rows.tolist(), 3) is None

    def test_empty_and_all_zero_systems(self):
        assert _reduced_system(np.zeros((0, 4), dtype=np.int64), 4) == {}
        assert _reduced_system([(0, 0, 0), (0, 0, 0)], 3) == {}


SMALL = st.integers(-4, 4)
NEAR_2_62 = st.builds(
    lambda sign, offset: sign * (2**62 + offset),
    st.sampled_from((1, -1)),
    st.integers(-(2**20), 2**20),
)


@st.composite
def systems(draw, entries=SMALL, inconsistent=False):
    """(rows, width): integer combinations of a drawn basis of rank below
    or at the width, mixed with duplicate and all-zero rows; with
    `inconsistent`, a row (0, ..., 0, c) with c != 0 goes in somewhere."""
    width = draw(st.integers(1, 7))
    rank = draw(st.integers(0, width))
    basis = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(rank)]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("combination", "combination", "duplicate", "zero")))
        if kind == "zero" or not basis:
            rows.append([0] * width)
        elif kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank))
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(width)])
    if inconsistent:
        unit = [0] * (width - 1) + [draw(st.sampled_from((1, -3, 2**62)))]
        rows.insert(draw(st.integers(0, len(rows))), unit)
    return rows, width


class TestEliminationProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(systems())
    def test_small_systems(self, system):
        rows, width = system
        assert_same_system(_reduced_system(rows, width), list_reduced_system(rows, width), rows)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(systems(inconsistent=True))
    def test_inconsistent_systems(self, system):
        rows, width = system
        assert _reduced_system(rows, width) is None
        assert list_reduced_system(rows, width) is None

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(systems(entries=st.one_of(SMALL, NEAR_2_62)))
    def test_entries_near_2_62_take_the_object_path(self, system):
        # p x - c y over such entries wraps in int64, so only Python
        # integers give the list route's rows
        rows, width = system
        assert_same_system(_reduced_system(rows, width), list_reduced_system(rows, width), rows)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(systems(entries=st.integers(2**63, 2**64)))
    def test_entries_beyond_int64(self, system):
        rows, width = system
        assert_same_system(_reduced_system(rows, width), list_reduced_system(rows, width), rows)


def gram(rows, width) -> list:
    """A^T A of the rows, in Python integers."""
    return [[sum(row[i] * row[j] for row in rows) for j in range(width)] for i in range(width)]


class TestGramMatrixProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            systems(),
            systems(inconsistent=True),
            systems(entries=st.one_of(SMALL, NEAR_2_62)),
            systems(entries=st.integers(2**63, 2**64)),
        )
    )
    def test_gram_matrix_has_the_reduced_form_of_the_rows(self, system):
        # one row space over Q: the same pivots and primitive rows, found
        # perhaps in another order, or None for both
        rows, width = system
        want = list_reduced_system(rows, width)
        assert_same_contents(_reduced_system(gram(rows, width), width), want, rows)


def theta_trivial(md: ModularData) -> np.ndarray:
    """The search's theta_i = 1: twist exponent 0."""
    return _twist_exponents(md)[2] == 0


class TestThetaTrivialBySlot:
    def test_slot_choice_equals_per_label_choice(self, data):
        for label, md in data.items():
            assert np.flatnonzero(theta_trivial(md)).tolist() == per_label_theta_trivial(md), label

    def test_equal_values_in_two_slots_at_different_conductors(self):
        # zeta_4 and zeta_8^2 are one value in two slots
        toric = corpus.toric_code().modular
        i8 = Cyclotomic(8, (0, 0, 1, 0))
        md = ModularData(s=toric.s, t=(zeta(4), i8, zeta(4), -zeta(4)))
        assert len(md.t.entries) == 3 and i8 == zeta(4)
        assert theta_trivial(md).tolist() == [True, True, True, False]
        assert per_label_theta_trivial(md) == [0, 1, 2]

    def test_zero_t_unit_raises_non_modular(self):
        toric = corpus.toric_code().modular
        one = Cyclotomic.from_rational(1)
        md = ModularData(s=toric.s, t=(ZERO, one, one, -one))
        for call in (_twist_exponents, candidate_search, verdict):
            with pytest.raises(NonModular, match=r"^T_u = 0, twists undefined$"):
                call(md)
