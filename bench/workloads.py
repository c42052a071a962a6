"""The four benchmark workloads and the checks on their outputs.

Each workload is a list of jobs run in a closed loop by one client: the
next job starts when the previous one has returned.  A job calls public
entry points with default arguments, and its output is checked against
mathematical facts that any correct version of mtcbound must keep (never
against a snapshot, and never against a candidate count, which sharper
necessary conditions may lower).  See README.md for why each workload
exists and which layer it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mtcbound
import mtcbound.cli
import mtcbound.corpus

import generators

VERDICT, VALIDATE, OTHER = "verdict", "validate", "other"
NO_BOUNDARY_CHARGE = "NoBoundary_CentralCharge"
EXACT = "ExactBoundaries"

# Central charges (mod 8) of the fixtures that fail the gate.
KNOWN_CHARGES = {"semion": Fraction(1), "ising": Fraction(1, 2), "fibonacci": Fraction(14, 5)}
DOUBLE_BASES = {
    "double_trivial": "trivial",
    "double_of_semion": "semion",
    "double_of_double_semion": "double_semion",
    "double_toric_code": "toric_code",
    "double_ising": "ising",
    "double_fibonacci": "fibonacci",
}
# Fusion-ring components per ring-bearing fixture; every other one has 1.
COMPONENTS = {"fib_plus_z2": 2}
COLD_CLI_FIXTURE = "double_semion"


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def api(name: str, *args, **kwargs):
    """A job body calling `mtcbound.<name>(*args, **kwargs)`.  The name is
    looked up when the job runs, so a traced run calls the tracer's wrapper."""
    return lambda: getattr(mtcbound, name)(*args, **kwargs)


def check_valid(report) -> None:
    require(report.ok, f"validation failed: {report.failed_names()}")


def check_subgroups(mg, subgroups, expected_count=None) -> None:
    """Each subgroup is closed, isotropic and of order sqrt(|A|)."""
    root = math.isqrt(mg.size)
    if root * root != mg.size:
        require(not subgroups, "Lagrangian subgroups reported for a non-square |A|")
    for sub in subgroups:
        members = set(sub)
        require(len(members) == root, f"subgroup of order {len(members)}, want {root}")
        require(all(mg.qval(a) == 0 for a in members), "subgroup is not isotropic")
        require(
            all(mg.add(a, b) in members for a in members for b in members),
            "subgroup is not closed",
        )
    require(len(set(map(frozenset, subgroups))) == len(subgroups), "repeated subgroup")
    if expected_count is not None:
        require(
            len(subgroups) == expected_count,
            f"{len(subgroups)} Lagrangian subgroups, want {expected_count}",
        )


def indicators(mg, subgroups) -> list:
    return [tuple(1 if a in set(sub) else 0 for a in mg.elements) for sub in subgroups]


def reported_lists(report) -> list:
    """The candidate lists a report carries: the unfiltered one, and the
    filtered one while the library still reports it."""
    lists = [set(report.candidates)]
    filtered = getattr(report, "filtered_candidates", None)
    if filtered:
        lists.append(set(filtered))
    return lists


def cli_run(argv: list) -> tuple:
    """mtcbound's CLI in this process: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mtcbound.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_json(result) -> dict:
    code, text = result
    require(code == 0, f"exit code {code}")
    return json.loads(text)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def check_cold_verdict(code: int, text: str) -> None:
    payload = cli_json((code, text))
    require(payload["central_charge"] == "0 mod 8", "double semion has c = 0")
    require(not payload["verdict"].startswith("NoBoundary"), "double semion has a boundary")


def cold_cli_args(workdir: str) -> list:
    """Arguments of the cold CLI verdict; writes its fixture into `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{COLD_CLI_FIXTURE}.json")
    mtcbound.corpus.build(COLD_CLI_FIXTURE).save(path)
    return ["verdict", path, "--format", "json"]


# ---------------------------------------------------------------------------
# corpus: every shipped fixture through the CLI, in this process
# ---------------------------------------------------------------------------


def _check_validate(result) -> None:
    payload = cli_json(result)
    require(payload["reports"], "no validation report")
    require(all(r["ok"] for r in payload["reports"]), "a validation report failed")


def _check_verdict(name, oracle, base_rank):
    def check(result) -> None:
        payload = cli_json(result)
        if name in KNOWN_CHARGES:
            require(payload["verdict"] == NO_BOUNDARY_CHARGE, f"{name}: gate must fail")
            require(
                payload["central_charge"] == f"{KNOWN_CHARGES[name]} mod 8",
                f"{name}: c = {payload['central_charge']}",
            )
            return
        # every other fixture is a double or carries a Lagrangian subgroup
        require(payload["central_charge"] == "0 mod 8", f"{name}: c must vanish")
        require(not payload["verdict"].startswith("NoBoundary"), f"{name}: has a boundary")
        found = {tuple(n) for n in payload["candidates"]}
        for vec in oracle:
            require(vec in found, f"{name}: a Lagrangian indicator is not a candidate")
        if base_rank is not None:
            canonical = tuple(
                1 if i == j else 0 for i in range(base_rank) for j in range(base_rank)
            )
            require(canonical in found, f"{name}: canonical double candidate missing")

    return check


def _check_pointed_verdict(name, mg):
    def check(result) -> None:
        payload = cli_json(result)
        if name in KNOWN_CHARGES:
            require(payload["verdict"] == NO_BOUNDARY_CHARGE, f"{name}: gate must fail")
            return
        require(payload["verdict"] == EXACT, f"{name}: pointed verdict {payload['verdict']}")
        subs = [
            [tuple(int(c) for c in label.split(",")) for label in sub]
            for sub in payload["subgroups"]
        ]
        require(subs, f"{name}: a metric group with c = 0 here has a Lagrangian subgroup")
        check_subgroups(mg, subs)

    return check


def _check_decompose(name):
    def check(result) -> None:
        payload = cli_json(result)
        want = COMPONENTS.get(name, 1)
        require(len(payload["components"]) == want, f"{name}: components != {want}")

    return check


def _check_double(rank):
    def check(result) -> None:
        payload = cli_json(result)
        require(payload["rank"] == rank * rank, "double has rank r^2")

    return check


def corpus_workload(rng: random.Random, workdir: str) -> list:
    fixtures = fresh_dir(os.path.join(workdir, "fixtures"))
    doubled = fresh_dir(os.path.join(workdir, "doubled"))
    mtcbound.corpus.write_all(fixtures)
    specs = {}
    for name in mtcbound.corpus.fixture_names():
        path = os.path.join(fixtures, f"{name}.json")
        specs[name] = (path, mtcbound.CategorySpecFile.load(path))

    jobs = []

    def cli_job(kind, label, argv, check):
        jobs.append(Job(kind, label, lambda: cli_run(argv), check))

    for name, (path, spec) in specs.items():
        argv = ["validate", path, "--format", "json"]
        cli_job(VALIDATE, f"validate {name}", argv, _check_validate)
        if spec.modular is not None or spec.metric is not None:
            oracle = []
            if spec.metric is not None:
                oracle = indicators(spec.metric, mtcbound.lagrangian_subgroups(spec.metric))
            base = DOUBLE_BASES.get(name)
            base_rank = specs[base][1].modular.rank if base else None
            cli_job(
                VERDICT,
                f"verdict {name}",
                ["verdict", path, "--format", "json"],
                _check_verdict(name, oracle, base_rank),
            )
        if spec.metric is not None:
            cli_job(
                VERDICT,
                f"verdict --pointed {name}",
                ["verdict", path, "--pointed", "--format", "json"],
                _check_pointed_verdict(name, spec.metric),
            )
        if spec.effective_ring() is not None:
            argv = ["decompose", path, "--format", "json"]
            cli_job(OTHER, f"decompose {name}", argv, _check_decompose(name))
    for name in mtcbound.corpus.BASE_MODULAR_FIXTURES:
        path, spec = specs[name]
        out = os.path.join(doubled, f"double_{name}.json")
        argv = ["double", path, out, "--format", "json"]
        cli_job(OTHER, f"double {name}", argv, _check_double(spec.modular.rank))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# matrix: the exact S/T matrix layer
# ---------------------------------------------------------------------------


def matrix_workload(rng: random.Random, workdir: str) -> list:
    def base(name):
        return generators.shuffled_relabel(rng, mtcbound.corpus.build(name).modular)

    ising, semion, fibonacci = base("ising"), base("semion"), base("fibonacci")
    doubles = [  # bases of rank 6; their doubles have rank 36
        mtcbound.box_tensor(ising, semion),  # conductor 16
        mtcbound.box_tensor(ising, mtcbound.reverse(semion)),  # conductor 16
        mtcbound.box_tensor(ising, fibonacci),  # conductor 80
    ]
    charged = [  # rank 12 each; c = 1/2 or -1/2 from the Ising factor
        mtcbound.box_tensor(base(name), chiral)
        for name in ("toric_code", "double_semion")
        for chiral in (ising, mtcbound.reverse(ising))
    ]
    gated = mtcbound.box_tensor(base("d_z3"), ising)

    def check_double_verdict(md):
        canonical = mtcbound.canonical_double_candidate(md)

        def check(report) -> None:
            require(report.central_charge == 0, "a double has c = 0")
            require(not report.verdict.startswith("NoBoundary"), "a double has a boundary")
            for found in reported_lists(report):
                require(canonical in found, "canonical double candidate missing")

        return check

    def check_gate(report) -> None:
        require(report.verdict == NO_BOUNDARY_CHARGE, "c = 1/2 fails the gate")
        require(report.central_charge == Fraction(1, 2), "c = 1/2 expected")

    jobs = []
    for md in doubles:
        doubled = mtcbound.double(md)
        label = f"verdict rank-{doubled.rank} double"
        jobs.append(Job(VERDICT, label, api("verdict", doubled), check_double_verdict(md)))
    for md in charged:
        label = f"validate_modular rank {md.rank}"
        jobs.append(Job(VALIDATE, label, api("validate_modular", md), check_valid))
    jobs.append(Job(VERDICT, "verdict d_z3 x ising", api("verdict", gated), check_gate))
    return jobs


# ---------------------------------------------------------------------------
# pointed: metric groups, their modular data and Lagrangian subgroups
# ---------------------------------------------------------------------------


def _pointed_jobs(label: str, mg, expected_count=None) -> list:
    """metric_modular_data, validate_metric, the pointed verdict and the
    Milgram signature of one group; later jobs read what earlier ones made."""
    state = {}

    def build():
        state["md"] = mtcbound.metric_modular_data(mg)
        return state["md"]

    def check_build(md) -> None:
        require(md.rank == mg.size, "one simple object per group element")

    def check_verdict(report) -> None:
        state["c"] = report.central_charge
        if report.central_charge != 0:
            require(report.verdict == NO_BOUNDARY_CHARGE, "c != 0 must fail the gate")
            return
        require(report.verdict == EXACT, f"pointed verdict {report.verdict}")
        check_subgroups(mg, report.subgroups, expected_count)
        require(
            set(report.candidates) == set(indicators(mg, report.subgroups)),
            "candidates are not the subgroup indicators",
        )

    def check_milgram(sigma) -> None:
        require(sigma == state.get("c"), "Milgram signature differs from the central charge")

    return [
        Job(OTHER, f"metric_modular_data {label}", build, check_build),
        Job(VALIDATE, f"validate_metric {label}", api("validate_metric", mg), check_valid),
        Job(
            VERDICT,
            f"verdict --pointed {label}",
            lambda: mtcbound.verdict(state["md"], pointed_hint=mg),
            check_verdict,
        ),
        Job(OTHER, f"milgram_signature {label}", api("milgram_signature", mg), check_milgram),
    ]


def pointed_workload(rng: random.Random, workdir: str) -> list:
    jobs = []
    for idx, mg in enumerate(generators.pointed_groups(rng)):
        jobs += _pointed_jobs(f"#{idx} {mg.orders}", mg)
    for orders in ((3, 3), (2, 2, 2)):
        mg = generators.permuted_coordinates(rng, mtcbound.abelian_double(orders))
        jobs += _pointed_jobs(f"double {orders}", mg)
    d44 = generators.permuted_coordinates(rng, mtcbound.abelian_double((4, 4)))
    label = "validate_metric double (4,4)"
    jobs.append(Job(VALIDATE, label, api("validate_metric", d44), check_valid))
    jobs.append(
        Job(
            OTHER,
            "lagrangian_subgroups double (4,4)",
            api("lagrangian_subgroups", d44),
            lambda subs: check_subgroups(d44, subs, expected_count=22),
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# search: the exact candidate search with no pointed hint
# ---------------------------------------------------------------------------


SEARCH_VALIDATED_BASES = 8


def search_workload(rng: random.Random, workdir: str) -> list:
    # The search input is validated in several seeded bases: one
    # validation takes about 70 ms, too little to time once a pass.
    groups = [generators.triple_double_semion(rng) for _ in range(SEARCH_VALIDATED_BASES)]
    data = [mtcbound.metric_modular_data(mg) for mg in groups]
    mg, md = groups[0], data[0]
    oracle = indicators(mg, mtcbound.lagrangian_subgroups(mg))

    def validate(g, d):
        """validate_metric, and whether the group regenerates the data."""
        return lambda: (mtcbound.validate_metric(g), mtcbound.matches_modular_data(g, d))

    def check_validation(result) -> None:
        report, regenerates = result
        check_valid(report)
        require(regenerates is True, "the metric group does not regenerate its modular data")

    def check_verdict(report) -> None:
        require(report.central_charge == 0, "three double semions have c = 0")
        require(not report.verdict.startswith("NoBoundary"), "the group has Lagrangian subgroups")
        for found in reported_lists(report):
            for vec in oracle:
                require(vec in found, "a Lagrangian indicator is not a candidate")

    validations = [
        Job(VALIDATE, f"validate ds^3 in basis {idx}", validate(g, d), check_validation)
        for idx, (g, d) in enumerate(zip(groups, data))
    ]
    # half the validations before the long verdict and half after it, so
    # that they are timed at two moments of the machine's speed
    half = len(validations) // 2
    verdict = Job(VERDICT, "verdict ds^3", api("verdict", md), check_verdict)
    return validations[:half] + [verdict] + validations[half:]


# name -> builder(seeded generator, directory the workload may write
# files into) -> list of jobs
WORKLOADS = {
    "corpus": corpus_workload,
    "matrix": matrix_workload,
    "pointed": pointed_workload,
    "search": search_workload,
}
