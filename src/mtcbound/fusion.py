"""Fusion rings: sparse integer fusion tensors with dual and unit data.

This is the Grothendieck-ring level of the story.  A ring here may have a
decomposable unit (several unit summands); the block structure of such
rings lives in :mod:`mtcbound.multifusion`.

Validation is exact.  A dense int64 path (numpy) accelerates the
associativity scan for ranks up to `DENSE_RANK_CAP`; the sparse loop is
used beyond that and in cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DualMismatch, InputError, NumericError, PerfectnessFailure
from .report import ValidationReport

DENSE_RANK_CAP = 64


@dataclass(frozen=True, eq=True)
class FusionRing:
    labels: tuple[str, ...]
    unit: tuple[int, ...]
    dual: tuple[int, ...]
    fusion: dict

    def __post_init__(self):
        r = len(self.labels)
        if r == 0:
            raise InputError("a fusion ring needs at least one label")
        if len(set(self.labels)) != r:
            raise InputError("duplicate labels")
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        unit = tuple(self.unit)
        if not unit:
            raise InputError("unit_summands must be nonempty")
        if len(set(unit)) != len(unit):
            raise InputError("repeated unit summand")
        if any(not isinstance(u, int) or not 0 <= u < r for u in unit):
            raise InputError("unit summand index out of range")
        object.__setattr__(self, "unit", tuple(sorted(unit)))
        dual = tuple(self.dual)
        if len(dual) != r or sorted(dual) != list(range(r)):
            raise InputError("dual must be a permutation of all label indices")
        object.__setattr__(self, "dual", dual)
        fusion = {}
        for key, value in self.fusion.items():
            i, j, k = key
            if not (
                isinstance(i, int)
                and isinstance(j, int)
                and isinstance(k, int)
                and 0 <= i < r
                and 0 <= j < r
                and 0 <= k < r
            ):
                raise InputError(f"fusion index out of range: {key}")
            if not isinstance(value, int) or value < 0:
                raise InputError(f"fusion multiplicity must be a non-negative integer: {key}")
            if value:
                fusion[(i, j, k)] = value
        object.__setattr__(self, "fusion", fusion)

    # -- views ---------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.labels)

    def n(self, i: int, j: int, k: int) -> int:
        return self.fusion.get((i, j, k), 0)

    @property
    def is_simple_unit(self) -> bool:
        return len(self.unit) == 1

    def dense(self) -> np.ndarray:
        """Dense [r, r, r] int64 tensor; refuses silly sizes."""
        r = self.rank
        if r > DENSE_RANK_CAP:
            raise InputError(f"dense tensor refused for rank {r} > {DENSE_RANK_CAP}")
        out = np.zeros((r, r, r), dtype=np.int64)
        for (i, j, k), v in self.fusion.items():
            out[i, j, k] = v
        return out

    def left_matrix(self, i: int) -> np.ndarray:
        """Matrix (N_{ij}^k)_{jk} of multiplication by label i."""
        r = self.rank
        out = np.zeros((r, r), dtype=np.int64)
        for (a, j, k), v in self.fusion.items():
            if a == i:
                out[j, k] = v
        return out

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "unit": list(self.unit),
            "dual": list(self.dual),
            "fusion": [[i, j, k, v] for (i, j, k), v in sorted(self.fusion.items())],
        }

    @staticmethod
    def from_json_dict(obj) -> "FusionRing":
        if not isinstance(obj, dict):
            raise InputError("fusion ring section must be an object")
        for key in ("labels", "unit", "dual", "fusion"):
            if key not in obj:
                raise InputError(f"fusion ring section missing key {key!r}")
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise InputError("labels must be an array of strings")
        for key in ("unit", "dual"):
            if not _is_int_list(obj[key]):
                raise InputError(f"{key} must be an array of integers")
        triples = obj["fusion"]
        if not isinstance(triples, list):
            raise InputError("fusion must be a list of [i, j, k, N] rows")
        fusion: dict = {}
        for row in triples:
            if not _is_int_list(row) or len(row) != 4:
                raise InputError(f"bad fusion row {row!r}")
            i, j, k, v = row
            if (i, j, k) in fusion:
                raise InputError(f"duplicate fusion triple {(i, j, k)}")
            fusion[(i, j, k)] = v
        return FusionRing(
            labels=tuple(labels),
            unit=tuple(obj["unit"]),
            dual=tuple(obj["dual"]),
            fusion=fusion,
        )


def _is_int_list(obj) -> bool:
    """obj is a JSON array of integers (booleans excluded)."""
    return isinstance(obj, list) and all(type(x) is int for x in obj)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(ring: FusionRing) -> ValidationReport:
    """Check the ring axioms; every named check gets a pass/fail entry.

    Structural problems (bad indices, empty unit) already raise InputError
    at construction; everything here is a semantic axiom.
    """
    report = ValidationReport("fusion ring")
    r = ring.rank

    ok, where = True, None
    for i in range(r):
        if ring.dual[ring.dual[i]] != i:
            ok, where = False, (i,)
            break
    report.add("dual_involution", ok, where)

    ok, where = True, None
    for u in ring.unit:
        if ring.dual[u] != u:
            ok, where = False, (u,)
            break
    report.add("unit_summands_self_dual", ok, where)

    ok, where = True, None
    for j in range(r):
        for k in range(r):
            want = 1 if j == k else 0
            left = sum(ring.n(u, j, k) for u in ring.unit)
            right = sum(ring.n(j, u, k) for u in ring.unit)
            if left != want or right != want:
                ok, where = False, (j, k)
                break
        if not ok:
            break
    report.add("unit_law", ok, where)

    report.add("associativity", *_associativity(ring))

    # scanning the nonzero triples suffices: any violation in a reciprocity
    # orbit sits next to a nonzero entry, whose own scan detects it
    ok, where = True, None
    for (i, j, k), v in sorted(ring.fusion.items()):
        if ring.n(ring.dual[i], k, j) != v or ring.n(k, ring.dual[j], i) != v:
            ok, where = False, (i, j, k)
            break
    report.add("frobenius_reciprocity", ok, where)

    return report


def _associativity(ring: FusionRing) -> tuple[bool, tuple | None]:
    r = ring.rank
    if r <= DENSE_RANK_CAP:
        n = ring.dense()
        left = np.einsum("ijm,mkl->ijkl", n, n)
        right = np.einsum("jkm,iml->ijkl", n, n)
        if np.array_equal(left, right):
            return True, None
        bad = np.argwhere(left != right)[0]
        return False, tuple(int(t) for t in bad)
    by_left: dict = {}
    for (i, j, k), v in ring.fusion.items():
        by_left.setdefault((i, j), []).append((k, v))
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(
                        v * ring.n(m, k, l) for m, v in by_left.get((i, j), ())
                    )
                    rhs = sum(
                        v * ring.n(i, m, l) for m, v in by_left.get((j, k), ())
                    )
                    if lhs != rhs:
                        return False, (i, j, k, l)
    return True, None


# ---------------------------------------------------------------------------
# decategorified rigidity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingMatrix:
    """B_{ij} = multiplicity of unit summands inside x_i x_j."""

    entries: tuple
    permutation: tuple

    def to_json_dict(self) -> dict:
        return {"entries": [list(row) for row in self.entries], "permutation": list(self.permutation)}


def pairing_entries(ring: FusionRing) -> list[list[int]]:
    r = ring.rank
    return [
        [sum(ring.n(i, j, u) for u in ring.unit) for j in range(r)] for i in range(r)
    ]


def frobenius_pairing(ring: FusionRing) -> PairingMatrix:
    """The unit-coefficient pairing; must be a permutation matrix.

    Raises PerfectnessFailure when some row is empty or overweight, and
    DualMismatch when the induced permutation differs from the declared
    dual involution.
    """
    b = pairing_entries(ring)
    r = ring.rank
    perm = []
    for i, row in enumerate(b):
        support = [j for j, v in enumerate(row) if v]
        if len(support) != 1 or row[support[0]] != 1:
            raise PerfectnessFailure(
                f"pairing row {i} ({ring.labels[i]}) has weight "
                f"{sum(row)} over {len(support)} columns"
            )
        perm.append(support[0])
    if sorted(perm) != list(range(r)):
        raise PerfectnessFailure("pairing columns are not a permutation")
    if tuple(perm) != ring.dual:
        bad = next(i for i in range(r) if perm[i] != ring.dual[i])
        raise DualMismatch(
            f"pairing sends {ring.labels[bad]} to {ring.labels[perm[bad]]}, "
            f"declared dual is {ring.labels[ring.dual[bad]]}"
        )
    return PairingMatrix(tuple(tuple(row) for row in b), tuple(perm))


def pairing_symmetry_check(ring: FusionRing) -> list[tuple[int, int]]:
    """Violations of B_{ij} = B_{ji}; empty list means the check passed."""
    b = pairing_entries(ring)
    r = ring.rank
    return [(i, j) for i in range(r) for j in range(i + 1, r) if b[i][j] != b[j][i]]


# ---------------------------------------------------------------------------
# dimensions and constructions
# ---------------------------------------------------------------------------


def fp_dimensions(ring: FusionRing, tolerance: float = 1e-10) -> list[float]:
    """Largest real eigenvalue of left multiplication, per label."""
    dims = []
    for i in range(ring.rank):
        eigs = np.linalg.eigvals(ring.left_matrix(i).astype(np.float64))
        if not np.all(np.isfinite(eigs)):
            raise NumericError(f"eigenvalue computation failed for label {i}")
        real = [e.real for e in eigs if abs(e.imag) <= tolerance * (1 + abs(e))]
        if not real:
            raise NumericError(f"no real eigenvalue for label {i}")
        dims.append(max(real))
    return dims


def ring_product(a: FusionRing, b: FusionRing) -> FusionRing:
    """Label-pair product ring: N_{(i,i')(j,j')}^{(k,k')} = N_a N_b."""
    rb = b.rank
    labels = tuple(f"({x},{y})" for x in a.labels for y in b.labels)
    unit = tuple(u * rb + v for u in a.unit for v in b.unit)
    dual = tuple(
        a.dual[i] * rb + b.dual[j] for i in range(a.rank) for j in range(rb)
    )
    fusion = {}
    for (i, j, k), v in a.fusion.items():
        for (x, y, z), w in b.fusion.items():
            fusion[(i * rb + x, j * rb + y, k * rb + z)] = v * w
    return FusionRing(labels=labels, unit=unit, dual=dual, fusion=fusion)


def direct_sum(a: FusionRing, b: FusionRing, tags: tuple[str, str] = ("a", "b")) -> FusionRing:
    """Disjoint union of rings; the unit becomes decomposable."""
    ra = a.rank
    labels = tuple(f"{x}.{tags[0]}" for x in a.labels) + tuple(
        f"{x}.{tags[1]}" for x in b.labels
    )
    unit = tuple(a.unit) + tuple(u + ra for u in b.unit)
    dual = tuple(a.dual) + tuple(d + ra for d in b.dual)
    fusion = dict(a.fusion)
    for (i, j, k), v in b.fusion.items():
        fusion[(i + ra, j + ra, k + ra)] = v
    return FusionRing(labels=labels, unit=unit, dual=dual, fusion=fusion)


def group_ring(orders: tuple[int, ...]) -> FusionRing:
    """Group ring of a product of cyclic groups, labels in lex order."""
    from itertools import product

    elements = list(product(*(range(n) for n in orders))) or [()]
    index = {e: i for i, e in enumerate(elements)}
    labels = tuple(",".join(str(c) for c in e) if e else "0" for e in elements)

    def add(x, y):
        return tuple((p + q) % n for p, q, n in zip(x, y, orders))

    def neg(x):
        return tuple((-p) % n for p, n in zip(x, orders))

    fusion = {
        (index[x], index[y], index[add(x, y)]): 1 for x in elements for y in elements
    }
    dual = tuple(index[neg(e)] for e in elements)
    return FusionRing(labels=labels, unit=(index[tuple(0 for _ in orders)],), dual=dual, fusion=fusion)
