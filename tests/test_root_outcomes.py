"""Pinned outcomes of the root-of-unity decisions: `as_root_of_unity`,
`central_charge`, `gauss_sums` and `milgram_signature` on values and
data at the edges of the exact kernel, and the CLI on a twist written
at a conductor past the table cap.  Each outcome is the value, or the
type and message of the exception raised.

Regenerate tests/data/root_outcomes.json, only when an outcome change
is intended, with `PYTHONPATH=src:. python tests/test_root_outcomes.py`.
"""

import contextlib
import io
import json
import pathlib
import sys
from fractions import Fraction

import pytest

from mtcbound import corpus
from mtcbound.cli import main
from mtcbound.cyclotomic import Cyclotomic, euler_phi, rational, zeta
from mtcbound.errors import MtcError
from mtcbound.modular import ModularData, central_charge, gauss_sums
from mtcbound.pointed import MetricGroup, metric_modular_data, milgram_signature
from tests.test_cyclotomic import _root_cases
from tests.test_gauss_phase import degenerate_forms, tampered_inputs

PINNED = pathlib.Path(__file__).parent / "data" / "root_outcomes.json"

# (3 + 4i)/5 over Q(zeta_N), N = 4 * 25013: i = zeta_N^25013 is a basis
# element, so the value has two nonzero coefficients of phi(N) = 50,024
WIDE_CONDUCTOR = 100052


def encoded(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [encoded(v) for v in value]
    if isinstance(value, (Fraction, Cyclotomic)):
        return str(value)
    raise TypeError(f"no encoding for {value!r}")


def outcome(f, *args):
    try:
        return {"value": encoded(f(*args))}
    except MtcError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def wide_twist() -> Cyclotomic:
    nums = [0] * euler_phi(WIDE_CONDUCTOR)
    nums[0], nums[WIDE_CONDUCTOR // 4] = 3, 4
    return Cyclotomic(WIDE_CONDUCTOR, tuple(nums), 5)


def wide_twist_document() -> dict:
    """The toric code without its metric section, with T_1 = (3 + 4i)/5
    written at conductor N = 100,052."""
    obj = json.loads(corpus.shipped_text("toric_code"))
    del obj["metric_group"]
    md = obj["modular_data"]
    md["T"][1] = wide_twist().to_json_dict()
    md["conductor"] = WIDE_CONDUCTOR
    return obj


def root_values() -> dict:
    p, q = 10**400 + 7, 10**399 + 3
    values = {f"{i}: {x}": x for i, x in enumerate(_root_cases())}
    # unit modulus near 10^800, no root of unity
    values["(p^2 - q^2 + 2 p q i)/(p^2 + q^2)"] = (
        rational(p * p - q * q) + 2 * p * q * zeta(4)
    ) / (p * p + q * q)
    values["10^400 (1 + z4)"] = Cyclotomic(4, (10**400, 10**400))
    values["2^53 z8"] = zeta(8) * 2**53
    values["(3 + 4i)/5 at N = 100052"] = wide_twist()
    return values


def modular_inputs() -> dict:
    data = dict(tampered_inputs())
    for i, mg in enumerate(degenerate_forms()):
        data[f"degenerate form {i}"] = mg
    # no quadratic form: g = 2 + i has |g|^2 = |A| = 5, but g / sqrt(5)
    # is no root of unity
    q = {(0,): 0, (1,): 0, (2,): 0, (3,): Fraction(1, 4), (4,): Fraction(1, 2)}
    data["|g|^2 = |A|, no root of unity"] = MetricGroup(orders=(5,), q=q)
    return data


def cli_outcome(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_outcomes(directory: pathlib.Path) -> dict:
    path = directory / "wide_twist.json"
    path.write_text(json.dumps(wide_twist_document()))
    return {
        command: cli_outcome([command, "--format", "json", str(path)])
        for command in ("validate", "verdict")
    }


def data_outcome(data) -> dict:
    if isinstance(data, ModularData):
        return {
            "central_charge": outcome(central_charge, data),
            "gauss_sums": outcome(gauss_sums, data),
        }
    got = {"milgram_signature": outcome(milgram_signature, data)}
    md = outcome(metric_modular_data, data)
    if "error" in md:
        return got | {"metric_modular_data": md}
    md = metric_modular_data(data)
    return got | {
        "central_charge": outcome(central_charge, md),
        "gauss_sums": outcome(gauss_sums, md),
    }


def outcomes(directory: pathlib.Path) -> dict:
    return {
        "as_root_of_unity": {
            label: outcome(Cyclotomic.as_root_of_unity, x) for label, x in root_values().items()
        },
        "data": {label: data_outcome(d) for label, d in modular_inputs().items()},
        "cli": cli_outcomes(directory),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_as_root_of_unity(pinned):
    got = {label: outcome(Cyclotomic.as_root_of_unity, x) for label, x in root_values().items()}
    assert got == pinned["as_root_of_unity"]


def test_central_charge_gauss_sums_and_milgram_signature(pinned):
    got = {label: data_outcome(d) for label, d in modular_inputs().items()}
    assert got == pinned["data"]


def test_cli_on_a_twist_past_the_table_cap(pinned, tmp_path):
    got = cli_outcomes(tmp_path)
    assert got == pinned["cli"]
    message = "error: conductor 100052 needs 50024 basis elements, table cap is 2048\n"
    assert [(r["exit"], r["stderr"]) for r in got.values()] == [(2, message)] * 2


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        PINNED.write_text(
            json.dumps(outcomes(pathlib.Path(directory)), indent=1, sort_keys=True) + "\n"
        )
    sys.stdout.write(f"wrote {PINNED}\n")
