"""Brute-force reference implementations for cross-checking.

These deliberately share no algorithmic code with the main path.  A lattice
is scanned once, in its reach box prod [0, c_k]: x lies in N exactly when
x . a = 0 (mod det) for every column a of an adjugate found here by
fraction-free elimination, which also gives each axis reach c_k in closed
form.  Each column that tests something is one broadcast comparison: the
longest axis's negated residues against the other axes' residues summed
over their box.  ``_BoxScanner.slabs`` yields the members in slabs along
the longest axis, so memory stays flat whatever the box's shape, and that
one scan counts a branch's face indices by support and, by a prefix OR
over the hits, finds its minimal points.
Slow is fine; independent is the point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .intlat import Lattice, RatVec, is_index

# Hard ceiling on scanned box cells; the oracle is a checking tool, not a
# production path, and anything bigger than this is a mistake.
MAX_SCAN = 10**8
_CHUNK = 1 << 20


def _adjugate(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """(det * inverse, det) of an integer matrix, by fraction-free Gauss-Jordan
    elimination on [mat | I] (Bareiss, Math. Comp. 22, 1968): each entry stays
    a minor up to sign, so every division by the previous pivot is exact."""
    d = len(mat)
    rows = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for k in range(d):
        piv = next(r for r in range(k, d) if rows[r][k])
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        for r in range(d):
            if r != k:
                f = rows[r][k]
                rows[r] = [(top[k] * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = top[k]
    return [[sign * x for x in row[d:]] for row in rows], sign * prev


class _BoxScanner:
    """Exhaustive membership filter over the reach box of one lattice."""

    def __init__(self, n: Lattice):
        if n.denom != 1:
            raise DomainError("NOT_SUBLATTICE", "oracle expects a sublattice of Z^d")
        self.dim = n.dim
        adj, det = _adjugate([list(row) for row in n.scaled_basis])
        det = self.det = abs(det)
        # t * e_k is a member exactly when t * adj[k] = 0 (mod det) in every
        # column, so the least such t > 0, the axis reach c_k, divides det.
        self.reach = [det // math.gcd(det, *row) for row in adj]
        # The scan axes, by decreasing reach (ties in index order): slabs cut
        # the longest, so each column's table of the others is smallest.
        self.order = sorted(range(self.dim), key=lambda k: -self.reach[k])
        # The columns of adj mod det in scan order; those that vanish test nothing.
        columns = ([x % det for x in c] for c in zip(*(adj[k] for k in self.order)))
        self.columns = [c for c in columns if any(c)]

    def slabs(self):
        """Membership of the reach box prod [0, c_k], capped before any array.

        Slabs of about ``_CHUNK`` cells (at least one row) along the longest
        axis come as ``(axes, mask)``: ``axes`` are the slab's coordinates,
        one int64 array per axis in scan order (``self.order``) shaped to
        broadcast, and ``mask`` marks its members.  The edge lattice lies in
        N, so det divides prod c_k: every box under the cap has det <
        MAX_SCAN < 2**31, and products of two residues fit int64.
        """
        shape = [self.reach[k] + 1 for k in self.order]
        total = math.prod(shape)
        if total > MAX_SCAN:
            msg = f"box of {total} points exceeds the oracle cap"
            raise DomainError("LIMIT_EXCEEDED", msg)
        det, d = self.det, self.dim
        later = [
            np.arange(size, dtype=np.int64).reshape([-1 if i == k else 1 for i in range(d)])
            for k, size in enumerate(shape[1:], 1)
        ]
        # A cell passes column a when x_1 * a_1 = -(x_2 * a_2 + ...) mod
        # det; the right side, summed over the later axes, is one table.
        tails = [sum(x * a % det for x, a in zip(later, col[1:])) % det for col in self.columns]
        step = max(1, _CHUNK * shape[0] // total)
        for lo in range(0, shape[0], step):
            first = np.arange(lo, min(lo + step, shape[0]), dtype=np.int64)
            first = first.reshape(-1, *[1] * (d - 1))
            mask = np.ones((len(first), *shape[1:]), dtype=bool)
            for col, tail in zip(self.columns, tails):
                mask &= -first * col[0] % det == tail
            yield [first, *later], mask


def _support(axes, order) -> np.ndarray:
    """Bitmask of the nonzero coordinates of each cell, given a slab's axes
    and the coordinate ``order[i]`` of its scan axis i."""
    bit = np.min_scalar_type((1 << len(axes)) - 1).type
    return sum((x > 0) * bit(1 << k) for k, x in zip(order, axes))


def _scan(scanner: _BoxScanner) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """(members of the reach box by support bitmask, minimal hits, sorted).

    The cells of support F are the edge box of face F, so each count is the
    index of F.  The members less the corners (coordinates in {0, c_k}) are
    the hits: the points of the faces of index above 1, less their corners,
    and a corner is never minimal, since whatever lies above it lies above
    the other member too.  A hit is minimal when the prefix OR of hits is
    clear one cell below it on every axis.
    """
    d, order = scanner.dim, scanner.order
    reach = [scanner.reach[k] for k in order]
    counts = np.zeros(1 << d, dtype=np.int64)
    # below[1:] marks the cells with a hit at or below them; below[0] carries
    # the last row of the slab before, none at first.
    last, found = False, []
    for axes, hits in scanner.slabs():
        counts += np.bincount(_support(axes, order)[hits], minlength=1 << d)
        # The corners, every coordinate a multiple of c_k, leave the members.
        hits[tuple(slice(-x.flat[0] % c, None, c) for x, c in zip(axes, reach))] = False
        below = np.concatenate([np.broadcast_to(last, hits[:1].shape), hits])
        for axis in range(d):
            np.logical_or.accumulate(below, axis=axis, out=below)
        free = hits & ~below[:-1]
        for axis in range(1, d):
            lead = (slice(None),) * axis
            free[lead + (slice(1, None),)] &= ~below[1:][lead + (slice(-1),)]
        points = np.argwhere(free)
        points[:, 0] += axes[0].flat[0]
        found.append(points)
        last = below[-1]
    # Back from scan order to coordinates, in the lexicographic order of S_min.
    back = [order.index(k) for k in range(d)]
    return counts, sorted(map(tuple, np.concatenate(found)[:, back].tolist()))


def brute_branch(n: Lattice) -> tuple[list[tuple[int, ...]], list[int], dict[tuple, int]]:
    """(minimal points of the union of singular-face interiors, axis reaches
    c_1..c_d, index of every nonempty face keyed by its indices).

    One :func:`_scan` of the reach box [0, c_1] x ... x [0, c_d], each c_k
    read off the adjugate; a face is singular when its index is above 1.
    The box holds every minimal point: subtracting c_k e_k from a point
    beyond it stays in the same face interior.
    """
    scanner = _BoxScanner(n)
    counts, points = _scan(scanner)
    faces = {
        tuple(i + 1 for i in range(n.dim) if s >> i & 1): count
        for s, count in enumerate(counts.tolist()) if s
    }
    return points, scanner.reach, faces


def brute_face_index(n: Lattice, indices) -> int:
    """Count lattice points in the half-open edge box of a face, by box scan.

    Equals the lattice index underlying the face's regularity flag: the face
    is regular exactly when the count is 1.  Read off :func:`brute_branch`.
    """
    idx = tuple(indices)  # checked before the set, where True would merge with 1
    if not idx or not all(is_index(i, n.dim) for i in idx):
        raise DomainError("BAD_FACE", f"face indices {idx} not within 1..{n.dim}")
    return brute_branch(n)[2][tuple(sorted(set(idx)))]


def brute_minimal_S(n: Lattice, bound: int) -> list[RatVec]:
    """Minimal points of the union of singular-face interiors, by box search;
    ``bound`` must reach every axis reach c_k, checked before the scan."""
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise DomainError("BOUND_TOO_SMALL", "bound must be a positive integer")
    scanner = _BoxScanner(n)
    for k, c in enumerate(scanner.reach):
        if c > bound:
            msg = f"no lattice point on axis {k + 1} within bound {bound}"
            raise DomainError("BOUND_TOO_SMALL", msg)
    return [RatVec(x) for x in _scan(scanner)[1]]
