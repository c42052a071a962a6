"""Block decomposition of multifusion rings.

A ring whose unit decomposes as a sum of projectors p_0, ..., p_{s-1}
splits into blocks B(i, j) = { x : p_i x p_j = x }, exactly like a ring
of matrices.  Labels are assigned blocks, blocks assemble into
indecomposable components (union-find over "B(i, j) is nonempty"), and
each diagonal block B(i, i) is itself a fusion ring with simple unit
(the corner ring).  Corners inside one component are Morita-related;
the witness we can see at ring level is the row/column label sets and
the matching global dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousBlock, InputError
from .fusion import FusionRing, fp_dimensions


def unit_summands_check(ring: FusionRing) -> list[tuple]:
    """Violations of the projector axioms for the unit summands.

    Checks p_u p_u = p_u, p_u p_v = 0 for u != v, and p_u* = p_u, all at
    the fusion-coefficient level.  Empty list means pass.
    """
    bad: list[tuple] = []
    unit = ring.unit
    for u in unit:
        if ring.dual[u] != u:
            bad.append((u, "not self-dual"))
        for v in unit:
            want = np.zeros(ring.rank, dtype=np.int64)
            if u == v:
                want[u] = 1
            wrong = np.flatnonzero(ring.product_vector(u, v) != want)
            bad.extend((u, v, k) for k in wrong.tolist())
    return bad


@dataclass(frozen=True)
class BlockDecomposition:
    ring: FusionRing
    block_of: dict  # label index -> (row unit position, column unit position)
    components: tuple  # tuple of sorted tuples of unit positions

    @property
    def unit_count(self) -> int:
        return len(self.ring.unit)

    def component_of_unit(self, pos: int) -> int:
        for ci, comp in enumerate(self.components):
            if pos in comp:
                return ci
        raise InputError(f"unit position {pos} out of range")

    def block_labels(self, i: int, j: int) -> list[int]:
        return [x for x in range(self.ring.rank) if self.block_of[x] == (i, j)]

    def to_json_dict(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "blocks": {
                self.ring.labels[x]: list(self.block_of[x])
                for x in range(self.ring.rank)
            },
            "corners": [
                corner_ring(self, i).to_json_dict() for i in range(self.unit_count)
            ],
        }


def block_partition(ring: FusionRing) -> BlockDecomposition:
    """Assign each label its (row, column) unit projectors.

    Raises AmbiguousBlock when a label is not picked out by exactly one
    left and one right projector, or when the matrix-style block rule
    B(i, j) * B(k, l) = 0 for j != k fails against the fusion tensor.
    """
    violations = unit_summands_check(ring)
    if violations:
        raise AmbiguousBlock(f"unit summands are not orthogonal projectors: {violations[0]}")
    unit = ring.unit
    r = ring.rank
    position = np.zeros(r, dtype=np.int64)
    is_unit = np.zeros(r, dtype=bool)
    position[list(unit)] = np.arange(len(unit))
    is_unit[list(unit)] = True
    x, y, z = ring.indices().T
    one = ring.table[:, 3] == 1
    # x in B(p, q) when N_ux^x = 1 for exactly one unit u, at position p,
    # and N_xv^x = 1 for exactly one unit v, at position q
    lefts = is_unit[x] & (y == z) & one
    rights = is_unit[y] & (x == z) & one
    n_left = np.bincount(y[lefts], minlength=r)
    n_right = np.bincount(x[rights], minlength=r)
    ambiguous = np.flatnonzero((n_left != 1) | (n_right != 1))
    if ambiguous.size:
        a = int(ambiguous[0])
        raise AmbiguousBlock(
            f"label {ring.labels[a]} is supported by {n_left[a]} left and "
            f"{n_right[a]} right unit projectors"
        )
    row = np.zeros(r, dtype=np.int64)
    col = np.zeros(r, dtype=np.int64)
    row[y[lefts]] = position[x[lefts]]
    col[x[rights]] = position[y[rights]]
    block_of = dict(enumerate(zip(row.tolist(), col.tolist())))

    # matrix calculus: x in B(i, j), y in B(k, l) can only multiply when
    # j = k, and then the product lies in B(i, l)
    mismatched = col[x] != row[y]
    leaves = (row[z] != row[x]) | (col[z] != col[y])
    bad = np.flatnonzero(mismatched | leaves)
    if bad.size:
        p = int(bad[0])
        a, b, c = int(x[p]), int(y[p]), int(z[p])
        (i, j), (k, l) = block_of[a], block_of[b]
        if mismatched[p]:
            raise AmbiguousBlock(
                f"nonzero product across mismatched blocks: "
                f"{ring.labels[a]} in block ({i},{j}) times {ring.labels[b]} in block ({k},{l})"
            )
        raise AmbiguousBlock(
            f"product {ring.labels[a]} * {ring.labels[b]} leaves its block: "
            f"{ring.labels[c]} sits in block {block_of[c]}, expected ({i}, {l})"
        )

    parent = list(range(len(unit)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, j in block_of.values():
        union(i, j)
    groups: dict[int, list[int]] = {}
    for p in range(len(unit)):
        groups.setdefault(find(p), []).append(p)
    components = tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))
    return BlockDecomposition(ring=ring, block_of=block_of, components=components)


def corner_ring(dec: BlockDecomposition, i: int) -> FusionRing:
    """The simple-unit fusion ring carried by the diagonal block B(i, i)."""
    ring = dec.ring
    keep = dec.block_labels(i, i)
    index = np.full(ring.rank, -1, dtype=np.int64)
    index[keep] = np.arange(len(keep))
    labels = tuple(ring.labels[x] for x in keep)
    keys = index[ring.indices()]
    inside = (keys >= 0).all(axis=1)
    dual = tuple(int(index[ring.dual[x]]) for x in keep)
    table = np.column_stack((keys[inside], ring.table[inside, 3]))
    return FusionRing.from_table(labels, (int(index[ring.unit[i]]),), dual, table)


@dataclass(frozen=True)
class MoritaWitness:
    corner: int
    row_labels: tuple  # labels in the chosen corner's row of blocks
    col_labels: tuple  # labels in the chosen corner's column of blocks
    corner_dims: tuple  # global FP dimension of every corner in the component

    @property
    def dims_agree(self) -> bool:
        return max(self.corner_dims) - min(self.corner_dims) <= 1e-6

    def to_json_dict(self) -> dict:
        return {
            "corner": self.corner,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "corner_dims": list(self.corner_dims),
            "dims_agree": self.dims_agree,
        }


def morita_witness(dec: BlockDecomposition, i: int) -> MoritaWitness:
    """Row/column bimodule label sets witnessing corner equivalence.

    Within the component of corner i, every corner has the same global
    FP dimension; the union of row blocks B(i, j) and the union of
    column blocks B(j, i), j running over the component, realize the
    equivalence at ring level.
    """
    comp = dec.components[dec.component_of_unit(i)]
    ring = dec.ring
    rows = [x for x in range(ring.rank) if dec.block_of[x][0] == i and dec.block_of[x][1] in comp]
    cols = [x for x in range(ring.rank) if dec.block_of[x][1] == i and dec.block_of[x][0] in comp]
    dims = []
    for j in comp:
        corner = corner_ring(dec, j)
        dims.append(float(sum(d * d for d in fp_dimensions(corner))))
    return MoritaWitness(
        corner=i,
        row_labels=tuple(ring.labels[x] for x in rows),
        col_labels=tuple(ring.labels[x] for x in cols),
        corner_dims=tuple(dims),
    )
