"""T held once, as its distinct entries and a slot array, and the Gauss
sums, central charges and Milgram signature read off integer histograms,
against the per-distinct-pair and mpmath-guided routes they replaced."""

import random
from fractions import Fraction

import pytest

from mtcbound import corpus
from mtcbound.cyclotomic import Cyclotomic, from_angle, rational, zeta
from mtcbound.errors import InputError, MtcError, NonModular
from mtcbound.modular import (
    FactoredMatrix,
    ModularData,
    _gauss_sum,
    box_tensor,
    central_charge,
    double,
    gauss_sums,
    reverse,
)
from mtcbound.pointed import MetricGroup, metric_modular_data, milgram_signature

from tests.helpers import (
    central_charge_via_square,
    distinct_pair_central_charge,
    distinct_pair_central_charge_via_square,
    distinct_pair_gauss_sum,
    per_element_milgram_signature,
    per_entry_box_tensor,
    per_entry_reverse,
    random_metric_group,
    relabelled,
)


def modular(name: str) -> ModularData:
    return corpus.build(name).modular


def key(e: Cyclotomic) -> tuple:
    return (e.conductor, e.nums, e.den)


def outcome(f, md):
    """f(md), or the type and message of the error it raises."""
    try:
        return f(md)
    except MtcError as exc:
        return (type(exc), str(exc))


def fresh(md: ModularData) -> ModularData:
    """The same data with an empty cache."""
    return ModularData(s=md.s, t=md.t, unit_index=md.unit_index, ring=md.ring)


def per_label_theta(md: ModularData) -> tuple:
    """theta_i = T_i / T_u, one division per label."""
    t_unit = md.t[md.unit_index]
    if t_unit.is_zero():
        raise NonModular("T_u = 0, twists undefined")
    return tuple(v / t_unit for v in md.t)


def assert_invariants_match(md: ModularData, label) -> None:
    """tau+-, both central charges and theta against the routes they
    replaced, each on a datum with an empty cache."""
    pairs = (
        (lambda m: _gauss_sum(m, 1), lambda m: distinct_pair_gauss_sum(m, 1)),
        (lambda m: _gauss_sum(m, -1), lambda m: distinct_pair_gauss_sum(m, -1)),
        (central_charge, distinct_pair_central_charge),
        (central_charge_via_square, distinct_pair_central_charge_via_square),
        (lambda m: m.theta(), per_label_theta),
    )
    for got, want in pairs:
        assert outcome(got, fresh(md)) == outcome(want, md), label


def labelled_inputs() -> list:
    """(label, datum): every fixture with modular data, the doubles of the
    six base fixtures, Ising with semion and Fibonacci and their doubles,
    and d_z3 with Ising."""
    out = []
    for name in corpus.fixture_names():
        md = modular(name)
        if md is not None:
            out.append((name, md))
    for name in corpus.BASE_MODULAR_FIXTURES:
        out.append((f"double({name})", double(modular(name))))
    ising = modular("ising")
    for name in ("semion", "fibonacci"):
        product = box_tensor(ising, modular(name))
        out += [(f"ising x {name}", product), (f"double(ising x {name})", double(product))]
    out.append(("d_z3 x ising", box_tensor(modular("d_z3"), ising)))
    return out


def per_entry_twists(mg: MetricGroup) -> FactoredMatrix:
    """T of mg with one `from_angle` per element."""
    return FactoredMatrix.vector(tuple(from_angle(mg.qval(a)) for a in mg.elements))


class TestInvariantsAgainstTheReplacedRoutes:
    def test_fixtures_doubles_and_products(self):
        for label, md in labelled_inputs():
            assert_invariants_match(md, label)

    def test_seeded_metric_groups(self):
        rng = random.Random(1313)
        for _ in range(200):
            mg = random_metric_group(rng, max_size=36)
            md = metric_modular_data(mg)
            assert_invariants_match(md, mg.orders)
            assert milgram_signature(mg) == per_element_milgram_signature(mg), mg.orders
            assert milgram_signature(mg) == central_charge(md), mg.orders

    def test_metric_fixtures_milgram(self):
        for name in corpus.fixture_names():
            mg = corpus.build(name).metric
            if mg is not None:
                assert milgram_signature(mg) == per_element_milgram_signature(mg), name

    def test_seeded_relabellings(self):
        rng = random.Random(77)
        inputs = labelled_inputs()
        for _ in range(12):
            label, md = rng.choice(inputs)
            perm = list(range(md.rank))
            rng.shuffle(perm)
            moved = relabelled(md, perm)
            assert_invariants_match(moved, (label, perm))
            assert gauss_sums(moved) == gauss_sums(md), (label, perm)
            assert moved.theta() == tuple(md.theta()[a] for a in perm), (label, perm)

    def test_tampered_twists(self):
        toric, ising = modular("toric_code"), modular("ising")
        cases = {
            # 2 is no root of unity: tau+ exists, c does not
            "not a root of unity": ModularData(
                s=toric.s, t=tuple(map(rational, (1, 1, 2, 2))), ring=toric.ring
            ),
            # T_u = zeta_5: every twist is divided by it
            "T_u != 1": ModularData(s=ising.s, t=tuple(zeta(5) * v for v in ising.t)),
            "T_u = 0": ModularData(s=ising.s, t=(rational(0),) + tuple(ising.t)[1:]),
            "a zero twist": ModularData(s=ising.s, t=tuple(ising.t)[:2] + (rational(0),)),
        }
        for label, md in cases.items():
            assert_invariants_match(md, label)
        with pytest.raises(MtcError, match="T_u = 0, twists undefined"):
            gauss_sums(cases["T_u = 0"])

    def test_coefficients_wide_enough_for_object_arithmetic(self):
        # T entries with coefficients near 2^70: the histogram product
        # leaves float64 and int64
        ising = modular("ising")
        wide = 2**70 + 1
        t = (rational(1), zeta(16) * wide, Cyclotomic(16, (wide, 0, -wide, 0, 0, 0, 0, 3)))
        md = ModularData(s=ising.s, t=t)
        assert_invariants_match(md, "wide T")
        assert md.t.table().nums.dtype == object


class TestFactoredT:
    def test_reads_back_as_the_given_vector(self):
        for label, md in labelled_inputs():
            t = tuple(md.t)
            assert isinstance(md.t, FactoredMatrix) and md.t.slots.shape == (md.rank,)
            assert len(md.t) == md.rank and list(md.t) == list(t), label
            assert [md.t[i] for i in range(md.rank)] == list(t), label
            assert ModularData(s=md.s, t=t, ring=md.ring) == md, label
            assert not md.t.slots.flags.writeable, label
            order: dict = {}
            for e in t:
                order.setdefault(key(e), len(order))
            assert [key(e) for e in md.t.entries] == list(order), label
            assert md.t.slots.tolist() == [order[key(e)] for e in t], label

    def test_equality_is_in_value(self):
        ising = modular("ising")
        t = tuple(ising.t)
        i4, i8 = zeta(4), Cyclotomic(8, (0, 0, 1, 0))  # both i
        a = ModularData(s=ising.s, t=(t[0], i4, t[2]))
        b = ModularData(s=ising.s, t=(t[0], i8, t[2]))
        assert a == b and a.t == b.t and key(a.t[1]) != key(b.t[1])
        assert a != ModularData(s=ising.s, t=(t[0], -i4, t[2]))

    def test_shape_errors_keep_their_messages(self):
        ising = modular("ising")
        message = "T must be a length-r vector of cyclotomic scalars"
        for t in (tuple(ising.t)[:2], FactoredMatrix.vector(tuple(ising.t)[:2]), ising.s):
            with pytest.raises(InputError, match=message):
                ModularData(s=ising.s, t=t)
        with pytest.raises(InputError, match="S must be square"):
            ModularData(s=ising.t, t=ising.t)

    def test_constructions_against_tuple_t(self):
        for label, md in labelled_inputs():
            for got, want in (
                (reverse(md), per_entry_reverse(md)),
                (double(md), per_entry_box_tensor(md, per_entry_reverse(md))),
            ):
                assert list(map(key, got.t)) == list(map(key, want.t)), label
                assert [key(e) for e in got.t.entries] == [key(e) for e in want.t.entries], label
                assert got.t.slots.tolist() == want.t.slots.tolist(), label
            assert reverse(md).t.slots is md.t.slots, label

    def test_metric_data_share_the_groups_t(self):
        mg = MetricGroup(orders=(5,), q={(a,): Fraction(a * a, 5) for a in range(5)})
        first, second = metric_modular_data(mg), metric_modular_data(mg)
        assert first.t is second.t and first.t.packed() is second.t.packed()
        rng = random.Random(5)
        for mg in [mg] + [random_metric_group(rng, max_size=64) for _ in range(20)]:
            t, oracle = metric_modular_data(mg).t, per_entry_twists(mg)
            assert [key(e) for e in t] == [key(e) for e in oracle], mg.orders
            assert [key(e) for e in t.entries] == [key(e) for e in oracle.entries], mg.orders

    def test_packed_t_is_the_gather_of_its_table(self):
        md = double(modular("d_z3"))
        packed, table = md.t.packed(), md.t.table()
        assert packed.nums.shape == (md.rank, table.nums.shape[2])
        assert (packed.nums == table.nums[md.t.slots, 0]).all()
        for i, e in enumerate(md.t):
            assert Cyclotomic(packed.conductor, tuple(packed.nums[i].tolist()), packed.den) == e
